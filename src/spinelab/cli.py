"""Command-line front end.

Exit codes: 0 on success, 1 on a verification mismatch, 2 on a bad input
or an exhausted resource, with one `error:` line on stderr.  Exit 2
covers a --p that is not an odd prime, a rank below 2, `spine cells` off
rank 4 or at a negative dimension, a negative or non-integer degree
bound, a bad graph, algebra or corpus file, a missing fixture, and the
equivariant census's edge budget and Nielsen step cap.
SPINELAB_MAX_DEGREE sets the default degree bound; an explicit
--max-degree wins over it.
"""

from __future__ import annotations

import json
import os
import re
import sys

import click

from spinelab import catalog, report
from spinelab.equivariant import (
    BudgetExceeded,
    ZpGraph,
    classify_reduced,
    equivariant_expansions,
    nielsen_moves,
)
from spinelab.fixtures import FixtureError, load_expected_tables, load_thm_input, thm_input
from spinelab.graphs import rank as graph_rank
from spinelab.linalg import check_odd_prime
from spinelab.series import CLOSED_FORMS
from spinelab.spine import (
    CorpusError,
    cell_rows,
    corpus_tables,
    expected_tables,
    quotient_complex,
    table_problems,
)


CONFIG_ERROR = 2
MISMATCH = 1
# the first degree of the corollary table: the one after the virtual
# cohomological dimension 2n - 3 = 5 of Out(F_4)
COROLLARY_START = 6

# What a bad input or an exhausted resource raises; each one exits 2.
INPUT_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    FixtureError,
    CorpusError,
    BudgetExceeded,
)


class InputBoundary(click.Group):
    """The one place input errors become exit codes.

    Every subcommand, its option callbacks included, runs inside
    `invoke`; an INPUT_ERRORS exception is printed as one `error:` line
    and exits 2.  A mismatch's `sys.exit(1)` passes through untouched.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except INPUT_ERRORS as exc:
            message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            click.echo(f"error: {' '.join(message.splitlines())}", err=True)
            sys.exit(CONFIG_ERROR)


def _prime(ctx, param, value):
    """Callback of every --p option."""
    return check_odd_prime(value)


def _rank(ctx, param, value):
    """Callback of every --rank option."""
    if value < 2:
        raise ValueError("rank must be >= 2")
    return value


def _bound(ctx, param, value):
    """The degree bound: the flag, else SPINELAB_MAX_DEGREE, else 40."""
    if value is None:
        raw = os.environ.get("SPINELAB_MAX_DEGREE", "40")
        if not re.fullmatch(r"\s*[+-]?\d+\s*", raw):
            raise ValueError(f"SPINELAB_MAX_DEGREE must be an integer, got {raw!r}")
        value = int(raw)
    if value < 0:
        raise ValueError(f"the degree bound must be >= 0, got {value}")
    return value


def _prime_option(required=False):
    default = {"required": True} if required else {"default": 3, "show_default": True}
    return click.option("--p", "prime", type=int, callback=_prime, **default)


_rank_option = click.option("--rank", "rank_", default=4, show_default=True, callback=_rank)
_bound_option = click.option("--max-degree", "bound", type=int, default=None, callback=_bound)


@click.group(cls=InputBoundary)
def main():
    """Census and equivariant-cohomology toolkit for small graph complexes."""


# ---------------------------------------------------------------------------
# spine


@main.group()
def spine():
    """Admissible-graph census and quotient cell structure."""


@spine.command()
@_prime_option()
@_rank_option
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def census(prime, rank_, out):
    """Enumerate the singular classes and all quotient cells."""
    doc = report.corpus_document(quotient_complex(prime, rank_))
    if out:
        with open(out, "w") as fh:
            fh.write(doc)
        click.echo(f"wrote {out}")
    else:
        click.echo(doc, nl=False)


@spine.command()
@_prime_option()
@_rank_option
@click.option("--dim", "dim_", default=1, show_default=True)
def cells(prime, rank_, dim_):
    """List the cells of one dimension with their isotropy orders."""
    if rank_ != 4:
        raise ValueError("cell rows name their vertices, and class names exist only at rank 4")
    if dim_ < 0:
        raise ValueError(f"the cell dimension must be >= 0, got {dim_}")
    rows = cell_rows(quotient_complex(prime, rank_), dim_)
    for names, iso in rows:
        click.echo(f"{', '.join(names)}  |  isotropy {iso}")
    if not rows:
        click.echo(f"no {dim_}-cells in the p = {prime}, rank-{rank_} complex", err=True)


@spine.command(name="verify-tables")
@click.argument("corpus", type=click.Path(exists=False, dir_okay=False))
def verify_tables(corpus):
    """Check a corpus file against the expected census tables."""
    with open(corpus) as fh:
        got = corpus_tables(json.load(fh))
    problems = table_problems(got, expected_tables(load_expected_tables()))
    if problems:
        for problem in problems:
            click.echo(f"mismatch: {problem}", err=True)
        sys.exit(MISMATCH)
    click.echo("corpus matches the expected tables")


@spine.command(name="report")
@_prime_option()
@_rank_option
@click.option("--markdown/--json", "as_markdown", default=True)
def spine_report(prime, rank_, as_markdown):
    """Render the census as markdown (or the corpus JSON)."""
    if as_markdown and rank_ != 4:
        raise ValueError(
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
@_prime_option(required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def classify(prime, out):
    """All reduced classes of rank 2(p-1)."""
    classes = classify_reduced(prime)
    doc = report.dumps([z.to_json() for z in classes])
    if out:
        with open(out, "w") as fh:
            fh.write(doc)
        click.echo(f"wrote {out} ({len(classes)} classes)")
    else:
        click.echo(doc, nl=False)


def _load_zp(path):
    with open(path) as fh:
        return ZpGraph.from_json(json.load(fh))


@equiv.command()
@click.option("--input", "path", required=True, type=click.Path(dir_okay=False))
def nielsen(path):
    """List the moves available on a stored graph-with-symmetry."""
    moves = nielsen_moves(_load_zp(path))
    click.echo(report.dumps([
        {"dart": m.dart, "along": m.along, "result": m.result.to_json()} for m in moves
    ]), nl=False)


@equiv.command()
@click.option("--input", "path", required=True, type=click.Path(dir_okay=False))
@click.option("--budget", default=None, type=int, help="edge budget; defaults to 3*rank-3")
def expand(path, budget):
    """Minimal admissible blow-ups of a stored graph-with-symmetry."""
    if budget is not None and budget < 0:
        raise ValueError(f"--budget must be non-negative, got {budget}")
    zg = _load_zp(path)
    if budget is None:
        budget = 3 * graph_rank(zg.graph) - 3
    pairs = equivariant_expansions(zg, budget)
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
@_bound_option
def component(which, bound):
    """Equivariant cohomology dims of one component of the quotient."""
    from spinelab.assembly import component_cohomology

    cx = quotient_complex(3, 4)
    anchor = catalog.COMPONENT_ANCHORS[which]
    dims = component_cohomology(cx, cx.component_containing(anchor), bound)
    click.echo(report.dims_markdown(f"{which} component", {which: dims}, 0, bound), nl=False)


@coh.command()
@_bound_option
def corollary12(bound):
    """Total assembled dims per degree, with the closed-form series."""
    from spinelab.assembly import corollary_dims

    if bound < COROLLARY_START:
        click.echo(
            f"no rows up to degree {bound}: the table starts at degree {COROLLARY_START}, "
            "above the virtual cohomological dimension 5 of Out(F_4)",
            err=True,
        )
        return
    cx = quotient_complex(3, 4)
    out = corollary_dims(cx, bound)
    click.echo(
        report.dims_markdown(
            "Assembled equivariant cohomology",
            {k: out[k] for k in ("rose", "theta11", "k33", "total")},
            COROLLARY_START,
            bound,
        ),
        nl=False,
    )
    click.echo(
        "closed form: 2*(1+t^3)/(1-t^4) + (1+t^3)*(1+2*t^7+t^8)/((1-t^4)*(1-t^8))"
    )


@coh.command()
@_prime_option()
@click.option("--aut-input", "path", type=click.Path(dir_okay=False), default=None,
              help="JSON file with an algebra presentation and restriction images")
@_bound_option
def thm14(prime, path, bound):
    """Equalizer bookkeeping for the rank-two normalizer component."""
    from spinelab.assembly import theorem_pipeline

    if path is None:
        algebra, images = load_thm_input(prime)
    else:
        with open(path) as fh:
            algebra, images = thm_input(json.load(fh))
    rep = theorem_pipeline(prime, algebra, images, bound)
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
@_prime_option()
@_bound_option
def series(which, prime, bound):
    """Expand one of the built-in closed-form series."""
    label, s = CLOSED_FORMS[which](prime)
    click.echo(label)
    click.echo(" ".join(str(c) for c in s.coefficients(bound)))


# ---------------------------------------------------------------------------
# verify


@main.group()
def verify():
    """End-to-end verification runs."""


@verify.command(name="all")
@_prime_option()
@_bound_option
@click.option("--out-json", type=click.Path(dir_okay=False), default=None)
@click.option("--out-markdown", type=click.Path(dir_okay=False), default=None)
def verify_all(prime, bound, out_json, out_markdown):
    """Run all 13 criteria at p = 3, or at an odd prime q >= 5 the four that
    hold at every odd prime, checked at q; nonzero exit on any mismatch."""
    from spinelab.verification import RunConfig, run_all

    results = run_all(RunConfig(p=prime, max_degree=bound))
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
