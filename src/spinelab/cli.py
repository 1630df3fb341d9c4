"""Command-line front end.

Exit codes: 0 on success, 1 on a verification mismatch, 2 on
configuration or resource errors (missing fixture, bad input file,
enumeration caps, a --p that is not an odd prime).  SPINELAB_MAX_DEGREE
sets the default degree bound; an explicit --max-degree wins over it.
"""

from __future__ import annotations

import json
import os
import sys

import click

from spinelab import catalog, report
from spinelab.fixtures import FixtureError
from spinelab.linalg import check_odd_prime


CONFIG_ERROR = 2
MISMATCH = 1


def _fail_config(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(CONFIG_ERROR)


def _bound(value):
    """The degree bound: the flag, else SPINELAB_MAX_DEGREE, else 40."""
    if value is not None:
        return value
    raw = os.environ.get("SPINELAB_MAX_DEGREE", "40")
    try:
        return int(raw)
    except ValueError:
        _fail_config(f"SPINELAB_MAX_DEGREE must be an integer, got {raw!r}")


def _prime(ctx, param, value):
    """Callback of every --p option."""
    try:
        return check_odd_prime(value)
    except ValueError as exc:
        _fail_config(str(exc))


@click.group()
def main():
    """Census and equivariant-cohomology toolkit for small graph complexes."""


# ---------------------------------------------------------------------------
# spine


@main.group()
def spine():
    """Admissible-graph census and quotient cell structure."""


@spine.command()
@click.option("--p", "prime", default=3, show_default=True, callback=_prime)
@click.option("--rank", "rank_", default=4, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def census(prime, rank_, out):
    """Enumerate the singular classes and all quotient cells."""
    from spinelab.spine import quotient_complex

    try:
        cx = quotient_complex(prime, rank_)
    except Exception as exc:  # enumeration caps, bad parameters
        _fail_config(str(exc))
    doc = report.corpus_document(cx)
    if out:
        with open(out, "w") as fh:
            fh.write(doc)
        click.echo(f"wrote {out}")
    else:
        click.echo(doc, nl=False)


@spine.command()
@click.option("--p", "prime", default=3, show_default=True, callback=_prime)
@click.option("--rank", "rank_", default=4, show_default=True)
@click.option("--dim", "dim_", default=1, show_default=True)
def cells(prime, rank_, dim_):
    """List the cells of one dimension with their isotropy orders."""
    from spinelab.spine import cell_rows, quotient_complex

    cx = quotient_complex(prime, rank_)
    for names, iso in cell_rows(cx, dim_):
        click.echo(f"{', '.join(names)}  |  isotropy {iso}")


@spine.command(name="verify-tables")
@click.argument("corpus", type=click.Path(exists=False, dir_okay=False))
def verify_tables(corpus):
    """Check a corpus file against the expected census tables."""
    from spinelab.fixtures import load_expected_tables
    from spinelab.spine import CorpusError, corpus_tables, expected_tables, table_problems

    try:
        with open(corpus) as fh:
            got = corpus_tables(json.load(fh))
        want = expected_tables(load_expected_tables())
    except (OSError, json.JSONDecodeError, FixtureError, CorpusError) as exc:
        _fail_config(str(exc))

    problems = table_problems(got, want)
    if problems:
        for problem in problems:
            click.echo(f"mismatch: {problem}", err=True)
        sys.exit(MISMATCH)
    click.echo("corpus matches the expected tables")


@spine.command(name="report")
@click.option("--p", "prime", default=3, show_default=True, callback=_prime)
@click.option("--rank", "rank_", default=4, show_default=True)
@click.option("--markdown/--json", "as_markdown", default=True)
def spine_report(prime, rank_, as_markdown):
    """Render the census as markdown (or the corpus JSON)."""
    from spinelab.spine import quotient_complex

    if as_markdown and rank_ != 4:
        _fail_config(
            "the markdown report needs class names, which exist only at rank 4; use --json"
        )
    cx = quotient_complex(prime, rank_)
    click.echo(report.census_markdown(cx) if as_markdown else report.corpus_document(cx), nl=False)


# ---------------------------------------------------------------------------
# equivariant


@main.group()
def equiv():
    """Order-p symmetry census, moves and expansions."""


@equiv.command()
@click.option("--p", "prime", required=True, type=int, callback=_prime)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def classify(prime, out):
    """All reduced classes of rank 2(p-1)."""
    from spinelab.equivariant import classify_reduced

    try:
        classes = classify_reduced(prime)
    except Exception as exc:
        _fail_config(str(exc))
    doc = report.dumps([z.to_json() for z in classes])
    if out:
        with open(out, "w") as fh:
            fh.write(doc)
        click.echo(f"wrote {out} ({len(classes)} classes)")
    else:
        click.echo(doc, nl=False)


def _load_zp(path):
    from spinelab.equivariant import ZpGraph

    try:
        with open(path) as fh:
            return ZpGraph.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        _fail_config(f"bad input file {path}: {exc}")


@equiv.command()
@click.option("--input", "path", required=True, type=click.Path(dir_okay=False))
def nielsen(path):
    """List the moves available on a stored graph-with-symmetry."""
    from spinelab.equivariant import nielsen_moves

    zg = _load_zp(path)
    try:
        moves = nielsen_moves(zg)
    except ValueError as exc:
        _fail_config(str(exc))
    click.echo(report.dumps([
        {"dart": m.dart, "along": m.along, "result": m.result.to_json()} for m in moves
    ]), nl=False)


@equiv.command()
@click.option("--input", "path", required=True, type=click.Path(dir_okay=False))
@click.option("--budget", default=None, type=int, help="edge budget; defaults to 3*rank-3")
def expand(path, budget):
    """Minimal admissible blow-ups of a stored graph-with-symmetry."""
    from spinelab.equivariant import BudgetExceeded, equivariant_expansions
    from spinelab.graphs import rank as graph_rank

    if budget is not None and budget < 0:
        _fail_config(f"--budget must be non-negative, got {budget}")
    zg = _load_zp(path)
    if budget is None:
        budget = 3 * graph_rank(zg.graph) - 3
    try:
        pairs = equivariant_expansions(zg, budget)
    except (BudgetExceeded, ValueError) as exc:
        _fail_config(str(exc))
    click.echo(report.dumps([
        {"graph": cand.to_json(), "forest": sorted(forest)} for cand, forest in pairs
    ]), nl=False)


# ---------------------------------------------------------------------------
# cohomology


@main.group()
def coh():
    """Graded-algebra and assembly computations."""


@coh.command()
@click.option("--which", type=click.Choice(list(catalog.COMPONENT_ANCHORS)), required=True)
@click.option("--max-degree", type=int, default=None)
def component(which, max_degree):
    """Equivariant cohomology dims of one component of the quotient."""
    from spinelab.assembly import component_cohomology
    from spinelab.spine import quotient_complex

    bound = _bound(max_degree)
    cx = quotient_complex(3, 4)
    anchor = catalog.COMPONENT_ANCHORS[which]
    dims = component_cohomology(cx, cx.component_containing(anchor), bound)
    click.echo(report.dims_markdown(f"{which} component", {which: dims}, 0, bound), nl=False)


@coh.command()
@click.option("--max-degree", type=int, default=None)
def corollary12(max_degree):
    """Total assembled dims per degree, with the closed-form series."""
    from spinelab.assembly import corollary_dims
    from spinelab.spine import quotient_complex

    bound = _bound(max_degree)
    cx = quotient_complex(3, 4)
    out = corollary_dims(cx, bound)
    click.echo(
        report.dims_markdown(
            "Assembled equivariant cohomology",
            {k: out[k] for k in ("rose", "theta11", "k33", "total")},
            6,
            bound,
        ),
        nl=False,
    )
    click.echo(
        "closed form: 2*(1+t^3)/(1-t^4) + (1+t^3)*(1+2*t^7+t^8)/((1-t^4)*(1-t^8))"
    )


@coh.command()
@click.option("--p", "prime", default=3, show_default=True, callback=_prime)
@click.option("--aut-input", "path", type=click.Path(dir_okay=False), default=None,
              help="JSON file with an algebra presentation and restriction images")
@click.option("--max-degree", type=int, default=None)
def thm14(prime, path, max_degree):
    """Equalizer bookkeeping for the rank-two normalizer component."""
    from spinelab.algebra import GradedAlgebra
    from spinelab.assembly import theorem_pipeline
    from spinelab.fixtures import load_thm_input

    bound = _bound(max_degree)
    try:
        if path is None:
            algebra, images = load_thm_input(prime)
        else:
            with open(path) as fh:
                data = json.load(fh)
            algebra = GradedAlgebra.from_json(data["algebra"])
            images = data["restriction_images"]
    except (OSError, json.JSONDecodeError, KeyError, FixtureError) as exc:
        _fail_config(str(exc))
    try:
        rep = theorem_pipeline(prime, algebra, images, bound)
    except ValueError as exc:
        _fail_config(str(exc))
    click.echo(
        report.dims_markdown(
            f"Recursion pipeline, p = {prime}",
            {
                "equalizer": rep.eq_dims,
                "invariants": rep.invariant_dims,
                "kernel-tensor": rep.kernel_tensor_dims,
            },
            0,
            bound,
        ),
        nl=False,
    )
    if not rep.identity_holds:
        click.echo("identity FAILED", err=True)
        sys.exit(MISMATCH)
    click.echo("identity holds: dim Eq = dim invariants + dim kernel-tensor")


@coh.command()
@click.option("--which", type=click.Choice(["sigma3", "equalizer", "metacyclic"]),
              default="equalizer", show_default=True)
@click.option("--p", "prime", default=3, show_default=True, callback=_prime)
@click.option("--max-degree", type=int, default=None)
def series(which, prime, max_degree):
    """Expand one of the built-in closed-form series."""
    from spinelab.series import CLOSED_FORMS

    bound = _bound(max_degree)
    label, s = CLOSED_FORMS[which](prime)
    click.echo(label)
    click.echo(" ".join(str(c) for c in s.coefficients(bound)))


# ---------------------------------------------------------------------------
# verify


@main.group()
def verify():
    """End-to-end verification runs."""


@verify.command(name="all")
@click.option("--p", "prime", default=3, show_default=True, callback=_prime)
@click.option("--rank", "rank_", default=4, show_default=True)
@click.option("--max-degree", type=int, default=None)
@click.option("--out-json", type=click.Path(dir_okay=False), default=None)
@click.option("--out-markdown", type=click.Path(dir_okay=False), default=None)
def verify_all(prime, rank_, max_degree, out_json, out_markdown):
    """Run the full suite; nonzero exit on any mismatch."""
    from spinelab.verification import RunConfig, run_all

    try:
        config = RunConfig(p=prime, rank=rank_, max_degree=_bound(max_degree))
    except ValueError as exc:
        _fail_config(str(exc))
    try:
        results = run_all(config)
    except FixtureError as exc:
        _fail_config(str(exc))
    md = report.verification_markdown(results)
    payload = report.dumps(
        [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    )
    if out_markdown:
        with open(out_markdown, "w") as fh:
            fh.write(md)
    if out_json:
        with open(out_json, "w") as fh:
            fh.write(payload)
    for r in results:
        click.echo(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    if not all(r.passed for r in results):
        sys.exit(MISMATCH)


if __name__ == "__main__":
    main()
