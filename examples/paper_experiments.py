"""Regenerate every table and figure of the paper's evaluation section.

Run with::

    python examples/paper_experiments.py                     # everything
    python examples/paper_experiments.py figure8             # a single artefact
    python examples/paper_experiments.py figure8 --isa avx512
    python examples/paper_experiments.py table2 --json       # machine-readable

This is a thin wrapper around :mod:`repro.harness.runner`; the same code
backs the pytest benchmarks, so the rows printed here are identical to the
rows asserted there.  Each artefact is a declarative :mod:`repro.study`
sweep — see ``examples/custom_machine_study.py`` for running them (and your
own sweeps) on machines other than the paper's Xeon Gold 6140.
"""

from __future__ import annotations

import sys

from repro.harness.runner import main

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
