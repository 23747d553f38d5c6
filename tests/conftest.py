"""Shared fixtures."""

import itertools

import pytest

from factcert import solver


class Interrupted(Exception):
    """Raised by the fake classify_cell of interrupt_after."""


@pytest.fixture
def interrupt_after(monkeypatch):
    """Run a search that dies once k cells are classified, as a kill would.

    solver.classify_cell is swapped for a fake that raises on its (k+1)-th
    call, so only a serial search (workers=1) sees it.
    """

    def run(task: solver.SearchTask, k: int) -> None:
        real = solver.classify_cell
        calls = itertools.count()

        def classify(task, cell):
            if next(calls) == k:
                raise Interrupted(f"interrupted after {k} cells")
            return real(task, cell)

        with monkeypatch.context() as mp:
            mp.setattr(solver, "classify_cell", classify)
            with pytest.raises(Interrupted):
                solver.run_search(task)

    return run
