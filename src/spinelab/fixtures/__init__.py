"""Loaders for the shipped JSON fixtures: algebras, morphisms, rules."""

from __future__ import annotations

import json
from importlib import resources

from spinelab.algebra import AlgebraMorphism, GradedAlgebra, parse_element


class FixtureError(RuntimeError):
    """A fixture file is missing or malformed (configuration error)."""


def _load(name: str) -> dict:
    try:
        path = resources.files("spinelab.fixtures").joinpath(name)
        return json.loads(path.read_text())
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise FixtureError(f"fixture {name} not found") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture {name} is not valid JSON") from exc


def load_algebras() -> dict:
    data = _load("algebras.json")
    return {name: GradedAlgebra.from_json(cfg) for name, cfg in data.items()}


def load_algebra(name: str) -> GradedAlgebra:
    algebras = load_algebras()
    if name not in algebras:
        raise FixtureError(f"no algebra fixture named {name}")
    return algebras[name]


def load_morphisms(names, algebras: dict | None = None) -> list:
    """The named morphism fixtures, in order, from one read of the file;
    ``algebras`` defaults to one ``load_algebras()``."""
    data = _load("morphisms.json")
    algebras = algebras or load_algebras()
    out = []
    for name in names:
        if name not in data:
            raise FixtureError(f"no morphism fixture named {name}")
        cfg = data[name]
        target = algebras[cfg["target"]]
        images = {gen: parse_element(target, expr) for gen, expr in cfg["images"].items()}
        out.append(AlgebraMorphism(algebras[cfg["source"]], target, images))
    return out


def load_coefficient_rule() -> dict:
    return _load("coefficient_rule.json")


def load_expected_tables() -> dict:
    return _load("expected_tables.json")


def load_thm_input(p: int):
    """The shipped recursion input for p, read by ``thm_input``."""
    return thm_input(_load(f"thm_input_p{p}.json"))


def thm_input(data: dict):
    """Pluggable recursion input: (algebra, restriction images as strings).

    The images are keyed by exactly the generator names.  A document of
    another shape raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    algebra = GradedAlgebra.from_json(data["algebra"])
    images = data["restriction_images"]
    if not isinstance(images, dict) or not all(isinstance(v, str) for v in images.values()):
        raise ValueError("'restriction_images' must be an object of strings")
    names = [g.name for g in algebra.generators]
    for name in names:
        if name not in images:
            raise ValueError(f"'restriction_images' has no image of generator {name!r}")
    for key in images:
        if key not in names:
            raise ValueError(f"'restriction_images' key {key!r} names no generator")
    return algebra, images
