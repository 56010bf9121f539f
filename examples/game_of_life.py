"""Conway's Game of Life through an execution plan.

Run with::

    python examples/game_of_life.py

The Game of Life is the paper's example of a non-linear "stencil" whose
update depends on all 8 neighbours.  Temporal folding cannot restructure its
arithmetic (the rule is not a weighted sum), so its plan runs the reference
arithmetic, but the rest of the machinery — the plan API, repeated
``run()`` calls, the exact agreement with the reference — applies
unchanged.  The example evolves a glider plus a random soup, prints the
population curve and verifies that the glider reappears translated after 4
generations on an otherwise empty board.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import Grid
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.library import game_of_life
from repro.stencils.reference import reference_run
from repro.utils.tables import format_table

GLIDER = np.array(
    [
        [0, 1, 0],
        [0, 0, 1],
        [1, 1, 1],
    ],
    dtype=float,
)


def render(board: np.ndarray, rows: int = 12, cols: int = 48) -> str:
    """ASCII rendering of the top-left corner of the board."""
    glyphs = {0.0: "·", 1.0: "█"}
    return "\n".join(
        "".join(glyphs[val] for val in row[:cols]) for row in board[:rows]
    )


def main() -> None:
    spec = game_of_life()

    # --- glider translation check on an empty board -------------------- #
    board = np.zeros((32, 32))
    board[1:4, 1:4] = GLIDER
    evolved = reference_run(spec, Grid(values=board, boundary=BoundaryCondition.PERIODIC), 4)
    expected = np.zeros_like(board)
    expected[2:5, 2:5] = GLIDER  # a glider moves one cell diagonally every 4 steps
    assert np.array_equal(evolved, expected), "glider did not translate correctly"
    print("Glider translated one cell diagonally after 4 generations ✔")

    # --- random soup through a compiled plan --------------------------- #
    grid = Grid.life_random((96, 96), density=0.35, seed=2024)
    life_plan = repro.plan(spec).method("transpose").compile()
    rows = []
    board_now = grid.copy()
    generations = (0, 8, 16, 32, 64)
    previous = 0
    for gen in generations:
        if gen > previous:
            board_now = board_now.with_values(life_plan.run(board_now, gen - previous))
            previous = gen
        rows.append({"generation": gen, "population": int(board_now.values.sum())})
    print()
    print(format_table(rows, title="Population of a 96×96 random soup (plan execution)"))

    # The plan's evolution, in four run() calls, is exactly the reference's.
    reference = reference_run(spec, grid, generations[-1])
    assert np.array_equal(board_now.values, reference)
    print("Plan evolution matches the step-by-step reference exactly ✔")
    print()
    print("Final state (top-left corner):")
    print(render(board_now.values))


if __name__ == "__main__":
    main()
