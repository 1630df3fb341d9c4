"""The three benchmark workloads and the checks that gate every pass.

A workload has a set-up snippet (timed in fresh interpreters for
``setup_s``), a constructor that builds what the timed work needs, and a
pass that does the fixed work once and records every correctness check in
a ``Checks``: ``run_pass`` in process, or ``run_child`` for the CLI.  Workload code reaches spinelab through
module attributes (``spine.quotient_complex``), never through names
imported into this file, so an installed tracer sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time


class Checks:
    """Every correctness check of a run; a failure is counted, never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{label}: got {got!r}, want {want!r}")

    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def relabel_edges(graph, rng: random.Random) -> list:
    """The edge list of ``graph`` under a random vertex relabeling,
    with the edges shuffled and each edge's endpoints randomly swapped."""
    vperm = list(range(graph.vertex_count))
    rng.shuffle(vperm)
    edges = []
    for e in range(graph.edge_count):
        u, v = graph.edge_endpoints(e)
        u, v = vperm[u], vperm[v]
        edges.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(edges)
    return edges


# ---------------------------------------------------------------------------
# census: graphs / symmetry / spine only

CENSUS_COMPLEXES = ((3, 4), (5, 4), (3, 3))
RELABELINGS_PER_CLASS = 30
# sha256 of report.corpus_document for each (p, rank); the corpus must stay
# byte-identical
CORPUS_SHA256 = {
    (3, 4): "690a44d13a2eded7fb2b2491c94fd79607a61900bbe08a09d1b117fe10f29376",
    (5, 4): "e5f9de762ccb9dd7e296d0f19c8eb1306ef0e0ffeab6fc96234343a3ad78fc02",
    (3, 3): "7dce6aa951fb17a5471688fa1ee4c901ad0d961f26cd5e231e2b7a6e57502c88",
}
P3_CELL_COUNTS = [24, 13, 3]
P3_COMPONENT_SIZES = [1, 7, 9]


class Census:
    name = "census"
    in_process = True
    degree_bound = None
    setup_code = (
        "import spinelab\n"
        "from spinelab import report, spine, symmetry\n"
        "from spinelab.fixtures import load_expected_tables\n"
        "load_expected_tables()\n"
    )

    def __init__(self, seed: int, workdir: str):
        from spinelab import fixtures

        self.seed = seed
        self.workdir = workdir
        self.expected_tables = fixtures.load_expected_tables()

    def run_pass(self, checks: Checks) -> None:
        from spinelab import graphs, report, spine, symmetry

        complexes = {}
        for p, n in CENSUS_COMPLEXES:
            cx = spine.quotient_complex(p, n)
            complexes[(p, n)] = cx
            doc = report.corpus_document(cx)
            path = os.path.join(self.workdir, f"corpus_p{p}_rank{n}.json")
            with open(path, "w") as fh:
                fh.write(doc)
            with open(path) as fh:
                back = fh.read()
            checks.expect(f"corpus p={p} rank={n} re-emitted", report.dumps(json.loads(back)), doc)
            checks.expect(
                f"corpus p={p} rank={n} sha256",
                hashlib.sha256(doc.encode()).hexdigest(),
                CORPUS_SHA256[(p, n)],
            )

        cx = complexes[(3, 4)]
        checks.expect("p=3 expected tables", spine.verify_expected_tables(cx, self.expected_tables), [])
        checks.expect("p=3 cell counts", [len(cx.cells_of_dim(d)) for d in (1, 2, 3)], P3_CELL_COUNTS)
        checks.expect("p=3 components", sorted(cx.component_vertex_counts()), P3_COMPONENT_SIZES)

        rng = random.Random(self.seed)
        for p in (3, 5):
            for cls in complexes[(p, 4)].classes:
                form = symmetry.canonical_form(cls.graph)
                for k in range(RELABELINGS_PER_CLASS):
                    moved = graphs.build_graph(cls.graph.vertex_count, relabel_edges(cls.graph, rng))
                    label = f"p={p} {cls.name} relabeling {k}"
                    checks.expect(label + " canonical form", symmetry.canonical_form(moved), form)
                    checks.expect(
                        label + " automorphism order", symmetry.automorphism_order(moved), cls.aut_order
                    )


# ---------------------------------------------------------------------------
# cohomology: algebra / linalg / series / assembly at a raised degree bound

COHOMOLOGY_BOUND = 120
# (criterion function, whether it takes the complex, name, detail) at bound 120
COHOMOLOGY_CRITERIA = (
    ("criterion_series", False, "equalizer-series", "dims<=8 (1, 0, 0, 1, 1, 0, 0, 3, 3)"),
    (
        "criterion_algebra_structure",
        False,
        "free-module-and-relations",
        "free=True, relations=[True, True, True, True, True, True]",
    ),
    ("criterion_wreath", False, "wreath-invariants", "dims_ok=True fixed=True independent=True"),
    (
        "criterion_metacyclic",
        False,
        "metacyclic-cohomology",
        "p=3: degrees=[3, 4]; p=5: degrees=[7, 8]; p=7: degrees=[11, 12]",
    ),
    ("criterion_recursion", False, "recursion-pipeline", "p3 degenerate=True, p5 synthetic=True"),
    ("criterion_corollary", True, "corollary-sum", "total<=10 (3, 0, 0, 3, 3, 0, 0, 5, 5, 0, 2)"),
)


class Cohomology:
    name = "cohomology"
    in_process = True
    degree_bound = COHOMOLOGY_BOUND
    setup_code = (
        "import spinelab\n"
        "from spinelab import spine, verification\n"
        "from spinelab.fixtures import load_algebras\n"
        "load_algebras()\n"
        "spine.quotient_complex(3, 4)\n"
    )

    def __init__(self, seed: int, workdir: str):
        from spinelab import spine

        self.complex = spine.quotient_complex(3, 4)
        # the seed fixes the order the criteria run in; their inputs are the
        # shipped fixtures
        self.order = list(COHOMOLOGY_CRITERIA)
        random.Random(seed).shuffle(self.order)

    def run_pass(self, checks: Checks) -> None:
        from spinelab import verification

        for fn_name, takes_complex, name, detail in self.order:
            fn = getattr(verification, fn_name)
            args = (self.complex, COHOMOLOGY_BOUND) if takes_complex else (COHOMOLOGY_BOUND,)
            result = fn(*args)
            checks.expect(f"{fn_name} result", (result.name, result.passed, result.detail), (name, True, detail))


# ---------------------------------------------------------------------------
# verify-all: the CLI headline command in its own process

VERIFY_ALL_BOUND = 40  # the CLI default, with SPINELAB_MAX_DEGREE removed
VERIFY_ALL_LINES = (
    "PASS  census-17-classes: 17 classes",
    "PASS  cells-tables: cells [24, 13, 3], duplicated pair x2",
    "PASS  components: counts [1, 7, 9], rose reduced homology [0, 0, 0, 0]",
    "PASS  equalizer-series: dims<=8 (1, 0, 0, 1, 1, 0, 0, 3, 3)",
    "PASS  free-module-and-relations: free=True, relations=[True, True, True, True, True, True]",
    "PASS  corollary-sum: total<=10 (3, 0, 0, 3, 3, 0, 0, 5, 5, 0, 2)",
    "PASS  wreath-invariants: dims_ok=True fixed=True independent=True",
    "PASS  reduced-classification: p=5: 5, p=7: 6",
    "PASS  nielsen-closures: singletons=True disjoint=True rank2-moves=0",
    "PASS  expansions: p=3: unique=True star=True terminal=True; p=5: unique=True star=True terminal=True",
    "PASS  metacyclic-cohomology: p=3: degrees=[3, 4]; p=5: degrees=[7, 8]; p=7: degrees=[11, 12]",
    "PASS  recursion-pipeline: p3 degenerate=True, p5 synthetic=True",
    "PASS  property-suites: rank=True canonical=True orbit-stabilizer=True d2=True",
)
VERIFY_ALL_TIMEOUT_S = 170
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


def check_verify_all_output(checks: Checks, returncode: int, stdout: str) -> None:
    lines = stdout.splitlines()
    checks.expect("verify all exit code", returncode, 0)
    checks.expect("verify all PASS lines", sum(1 for ln in lines if ln.startswith("PASS  ")), 13)
    checks.expect("verify all output", tuple(lines), VERIFY_ALL_LINES)


class VerifyAll:
    name = "verify-all"
    in_process = False
    degree_bound = VERIFY_ALL_BOUND
    setup_code = "import spinelab\nimport spinelab.cli\n"
    cli_args = ("verify", "all")

    def __init__(self, seed: int, workdir: str):
        """`verify all` takes no seed and writes no files; its inputs are
        the CLI defaults."""

    def run_child(self, checks: Checks, mode: str, out_path: str) -> float:
        """Run the command once under ``cli_child.py``, check its output and
        return the child's wall time as seen from here.

        ``mode`` is ``probe`` or ``trace``; the child writes its probe
        marks or its spans to ``out_path``."""
        command = [sys.executable, CLI_CHILD, mode, out_path, *self.cli_args]
        start = time.perf_counter()
        proc = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=VERIFY_ALL_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        check_verify_all_output(checks, proc.returncode, proc.stdout)
        return wall


WORKLOADS = {cls.name: cls for cls in (Census, Cohomology, VerifyAll)}
