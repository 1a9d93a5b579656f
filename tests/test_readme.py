"""The README's quick tour runs as written and gives what its comments claim."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_runs_and_matches_its_comments():
    ns = {}
    exec(compile(quick_tour_block(), "README.md quick tour", "exec"), ns)
    params = ns["design"].best_params
    assert (params.n1, params.n2, params.n3) == (5, 3, 3)
    assert ns["design"].dof_star == 715
    assert ns["arr"].positions == (0, 1, 3, 5, 6, 25, 38, 51, 102, 204, 306)
    assert ns["seg"].central_consecutive == (-371, 371)
    assert round(ns["leak"], 4) == 0.2137
    x = ns["x"]
    assert isinstance(x, np.ndarray) and np.iscomplexobj(x) and x.shape == (11, 10_000)
    assert ns["values"].shape == (2 * 371 + 1,)
    angles = np.sort(ns["est"].angles_deg)
    assert angles.shape == (2,)
    assert np.all(np.abs(angles - [-0.8, 0.8]) <= 0.4)
