"""Seeded fuzzing of the four commands that read a JSON document.

Each document is a valid input with one mutation: a key or list item
deleted, a list item duplicated, or one value (the whole document
included) replaced by one of ``VALUES``.  Whatever the mutation, the
command must end in a clean exit: 0; 2 with exactly one stderr line,
starting with ``error:``; or 1, a table mismatch, from
``spine verify-tables`` alone.  No exception but ``SystemExit`` may
escape.  The inputs:

- ``spine verify-tables`` on the corpus of ``spine report --json``;
- ``equiv nielsen --input`` and ``equiv expand --input`` on catalog
  graphs with an order-3 symmetry;
- ``coh thm14 --aut-input`` on the shipped p = 3 input.

``fuzz(seeds, workdir)`` makes one document per input for each seed, so
a wider seed range runs the same check on more documents.
"""

from __future__ import annotations

import copy
import json
import random
from importlib import resources
from pathlib import Path

from click.testing import CliRunner

from spinelab import catalog
from spinelab.cli import main
from spinelab.equivariant import ZpGraph

VALUES = (None, True, -1, 0, 1, 2, 10**6, 2**70, 1.5, "x", "", [], {}, [1], [-1], [[0]], {"a": 1})


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one mutation, and the mutation as text."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    ops = [("replace", v) for v in VALUES]
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        ops.append(("delete", None))
        if isinstance(parent, list):
            ops.append(("duplicate", None))
    op, value = rng.choice(ops)
    where = f"{op} at {list(path)}" + (f" by {value!r}" if op == "replace" else "")
    if not path:
        return value, where
    key = path[-1]
    if op == "delete":
        del parent[key]
    elif op == "duplicate":
        parent.insert(key, parent[key])
    else:
        parent[key] = value
    return doc, where


def _inputs(runner: CliRunner) -> list:
    """(command, base documents, whether exit 1 is allowed) per input."""
    report = runner.invoke(main, ["spine", "report", "--json"])
    assert report.exit_code == 0, report.output
    graphs = [
        ZpGraph(*catalog.rose_rotation(3, 3), 3).to_json(),
        ZpGraph(*catalog.theta_rotation(3, 0, 1), 3).to_json(),
        ZpGraph(*catalog.wedge_diagonal(3), 3).to_json(),
    ]
    thm = json.loads(resources.files("spinelab.fixtures").joinpath("thm_input_p3.json").read_text())
    return [
        (["spine", "verify-tables"], [json.loads(report.output)], True),
        (["equiv", "nielsen", "--input"], graphs, False),
        (["equiv", "expand", "--input"], graphs, False),
        (["coh", "thm14", "--aut-input"], [thm], False),
    ]


def fuzz(seeds, workdir) -> tuple:
    """Run one mutated document per input for each seed; returns the
    number of documents and a description of each failure."""
    runner = CliRunner()
    path = Path(workdir) / "doc.json"
    count, failures = 0, []
    inputs = _inputs(runner)
    for seed in seeds:
        rng = random.Random(seed)
        for command, docs, mismatch_ok in inputs:
            doc, where = mutate(rng.choice(docs), rng)
            path.write_text(json.dumps(doc))
            result = runner.invoke(main, [*command, str(path)])
            count += 1
            code, err = result.exit_code, result.stderr
            escaped = result.exception is not None and not isinstance(result.exception, SystemExit)
            clean = (
                code == 0
                or (code == 1 and mismatch_ok)
                or (code == 2 and err.startswith("error: ") and err.count("\n") == 1)
            )
            if escaped or not clean:
                failures.append(f"seed {seed}, {' '.join(command)}, {where}: exit {code}, {result.exception!r}")
    return count, failures


def test_mutated_documents_exit_cleanly(tmp_path):
    count, failures = fuzz(range(75), tmp_path)
    assert count == 300
    assert failures == []
