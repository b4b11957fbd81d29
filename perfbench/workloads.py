"""Seeded input generators for the depsketch benchmark.

Each workload is built from ``(name, seed)`` alone: the same pair gives
byte-identical class listings, snippets and expected answers.  Expected
answers are derived from how the inputs were constructed, never from
depsketch's output.

* ``shared-names``: N artifacts x 3 versions, each version offering 40
  types drawn from 300 shared simple names (4 to 12 providers per name),
  every type with ``run(java.lang.String)void``.  A snippet declares and calls k names that
  one planted artifact version alone provides; the generator checks that no
  other version provides all k, so the planted version is the unique
  one-dependency cover among the many cost-k covers.
* ``long-snippets`` and ``cli-cold``: types, methods and fields with names
  unique in the knowledge base, used by long (or short) pasted snippets in
  class form with imports or as bare statements.  Every clause is a unit
  clause.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

WORKLOADS = ("shared-names", "long-snippets", "cli-cold")

SHARED_TYPES_PER_VERSION = 40
SHARED_VERSIONS = ("1.0", "2.0", "3.0")
SHARED_PROVIDERS = (4, 6, 8, 10, 12)  # versions offering a simple name, one fifth of the names each
SHARED_MAX_LEAVES = 40000  # largest request: about 0.3 s of search today


@dataclass(frozen=True)
class Expected:
    """The answer a correct resolution gives, in the shape of the CLI report."""

    dependencies: tuple[str, ...]
    imports: tuple[str, ...]
    cost: int
    bindings: tuple[tuple[str, str, str], ...]  # (sketch render, fqn, dependency)
    builtins: tuple[str, ...]
    ambiguities: tuple[str, ...]
    patch: str

    def as_dict(self) -> dict:
        return {
            "dependencies": list(self.dependencies),
            "imports": list(self.imports),
            "cost": self.cost,
            "bindings": {render: [fqn, dep] for render, fqn, dep in self.bindings},
            "builtins": list(self.builtins),
            "unresolved": [],
            "ambiguities": list(self.ambiguities),
            "patch": self.patch,
        }


@dataclass
class Request:
    rid: str
    source: str
    expected: Expected


@dataclass
class Workload:
    name: str
    seed: int
    listings: list[tuple[str, str]]  # (dependency g:a:v, class listing text)
    warmup: Request
    requests: list[Request]  # one pass, in the order it is sent
    probes: list[Request] = field(default_factory=list)  # expected to exceed the budget
    budget_s: float = 10.0
    via_cli: bool = False

    def digest(self) -> str:
        """sha256 over every generated input and expected answer."""
        h = hashlib.sha256()
        for dep, text in self.listings:
            h.update(f"listing {dep}\n{text}".encode())
        for req in [self.warmup, *self.requests, *self.probes]:
            body = json.dumps(req.expected.as_dict(), sort_keys=True)
            h.update(f"request {req.rid}\n{req.source}\n{body}\n".encode())
        return h.hexdigest()


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    """The workload *name* for *seed*; ``tiny`` shrinks it for self-tests."""
    if name == "shared-names":
        return _shared_names(seed, tiny)
    if name == "long-snippets":
        return _long_snippets(seed, tiny)
    if name == "cli-cold":
        return _cli_cold(seed, tiny)
    raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(WORKLOADS)}")


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _patched(imports: list[str], header: str, body: str) -> str:
    """What ``emit_patch`` must produce: new imports after the import header."""
    return header + "".join(f"import {fqn};\n" for fqn in imports) + body


# -- shared-names ---------------------------------------------------------------


def _deal(rng: random.Random, providers: dict[str, int], bins: int, per_bin: int) -> list[list[str]]:
    """Put each name into exactly ``providers[name]`` of *bins* sets of *per_bin*."""
    pool = [name for name, count in providers.items() for _ in range(count)]
    if len(pool) != bins * per_bin:
        raise ValueError(f"{len(pool)} provider slots for {bins} x {per_bin}")
    rng.shuffle(pool)
    dealt = [pool[i * per_bin:(i + 1) * per_bin] for i in range(bins)]
    # Swap duplicates out of a bin until every bin holds distinct names.
    for i, row in enumerate(dealt):
        for pos in range(per_bin):
            while row.count(row[pos]) > 1:
                j = rng.randrange(bins)
                other = dealt[j]
                q = rng.randrange(per_bin)
                if j != i and other[q] not in row and row[pos] not in other:
                    row[pos], other[q] = other[q], row[pos]
    return dealt


def _shapes(count: int, max_leaves: int) -> list[tuple[int, ...]]:
    """*count* provider-count tuples, one per request, spread over search sizes.

    A snippet naming k types with m1..mk providers each has about
    m1 * ... * mk cost-k covers, all scored at the leaves today.  The tuples
    with k in 3..5 and at most *max_leaves* covers are sorted by that
    product and sampled evenly, so per-request cost spreads smoothly from
    tiny to large and is the same for every seed.
    """
    shapes = sorted(
        (shape for k in (3, 4, 5) for shape in combinations_with_replacement(SHARED_PROVIDERS, k)
         if math.prod(shape) <= max_leaves),
        key=lambda shape: (math.prod(shape), shape),
    )
    return [shapes[round(i * (len(shapes) - 1) / (count - 1))] for i in range(count)]


def _shared_names(seed: int, tiny: bool) -> Workload:
    rng = _rng("shared-names", seed)
    n_artifacts, per_version = (8, 10) if tiny else (20, SHARED_TYPES_PER_VERSION)
    versions = [
        (f"org.shared{a:02d}", f"lib{a:02d}", v) for a in range(n_artifacts) for v in SHARED_VERSIONS
    ]
    slots = len(versions) * per_version
    # Names come in equal groups per provider count; the counts average 8,
    # so 60 versions x 40 types hold 300 names.
    per_group = slots // sum(SHARED_PROVIDERS)
    names = [f"Item{i:03d}" for i in range(per_group * len(SHARED_PROVIDERS))]
    rng.shuffle(names)
    providers = {name: SHARED_PROVIDERS[i // per_group] for i, name in enumerate(names)}
    dealt = _deal(rng, providers, len(versions), per_version)
    listings = []
    for (group, artifact, version), row in zip(versions, dealt):
        lines = []
        for simple in sorted(row):
            lines.append(f"T {group}.{simple}")
            lines.append(f"M {group}.{simple}.run(java.lang.String)void")
        listings.append((f"{group}:{artifact}:{version}", "\n".join(lines) + "\n"))
    provided = [set(row) for row in dealt]

    def pick(shape: tuple[int, ...]) -> tuple[int, list[str]]:
        # A version with names of the wanted provider counts that no other
        # version provides all of: it is then the unique one-dependency cover.
        for index in rng.sample(range(len(versions)), len(versions)):
            chosen: list[str] = []
            for count in sorted(set(shape)):
                pool = sorted(name for name in provided[index] if providers[name] == count)
                need = shape.count(count)
                if len(pool) < need:
                    break
                chosen += rng.sample(pool, need)
            else:
                rng.shuffle(chosen)
                if not any(i != index and row.issuperset(chosen) for i, row in enumerate(provided)):
                    return index, chosen
        raise ValueError(f"no version offers a unique cover of shape {shape}")

    def planted(rid: str, shape: tuple[int, ...]) -> Request:
        index, chosen = pick(shape)
        group, artifact, version = versions[index]
        dep = f"{group}:{artifact}:{version}"
        lines = []
        for i, simple in enumerate(chosen):
            lines.append(f"{simple} v{i} = null;")
            lines.append(f'v{i}.run("x");')
        source = "\n".join(lines) + "\n"
        fqns = sorted(f"{group}.{simple}" for simple in chosen)
        run = "?.run(java.lang.String)?"
        keys = [f"{dep}:{fqn}" for fqn in fqns]
        bindings = [(f"?.{simple}", f"{group}.{simple}", dep) for simple in chosen]
        bindings.append((run, f"{fqns[0]}.run(java.lang.String)void", dep))
        ambiguity = f"{run} is satisfied by {len(chosen)} choices: " + ", ".join(keys)
        expected = Expected(
            dependencies=(dep,),
            imports=tuple(fqns),
            cost=len(chosen),
            bindings=tuple(bindings),
            builtins=(),
            ambiguities=(ambiguity,),
            patch=_patched(fqns, "", source),
        )
        return Request(rid, source, expected)

    shapes = [(4, 4, 4), (4, 4, 6), (4, 6, 8)] if tiny else _shapes(60, SHARED_MAX_LEAVES)
    warmup = planted("warmup", (4, 4, 4))
    requests = [planted(f"r{i:03d}", shape) for i, shape in enumerate(shapes)]
    rng.shuffle(requests)
    # k = 12 with about 5e10 cost-12 covers each: far beyond the budget today.
    probes = [planted(f"probe{i}", (6, 8, 10) * 4) for i in range(0 if tiny else 3)]
    return Workload("shared-names", seed, listings, warmup, requests, probes, budget_s=3.0)


# -- long-snippets / cli-cold -----------------------------------------------------


@dataclass
class _Kit:
    """One generated type, unique by simple name, with a method and a field.

    The method has an ``int`` overload that shares its lookup bucket but
    never matches the ``String`` calls snippets make.
    """

    index: int
    group: str
    dep: str

    @property
    def simple(self) -> str:
        return f"Kit{self.index:04d}"

    @property
    def fqn(self) -> str:
        return f"{self.group}.{self.simple}"

    @property
    def method(self) -> str:
        return f"op{self.index:04d}"

    @property
    def field(self) -> str:
        return f"MAX{self.index:04d}"


def _kit_kb(deps: int, per_dep: int) -> tuple[list[tuple[str, str]], list[_Kit]]:
    listings, kits = [], []
    for d in range(deps):
        group = f"org.kits{d:03d}"
        dep = f"{group}:kit{d:03d}:1.{d % 7}"
        lines = []
        for t in range(per_dep):
            kit = _Kit(d * per_dep + t, group, dep)
            kits.append(kit)
            lines.append(f"T {kit.fqn}")
            lines.append(f"M {kit.fqn}.{kit.method}(java.lang.String)void")
            lines.append(f"M {kit.fqn}.{kit.method}(int)void")  # same bucket, never matched
            lines.append(f"F {kit.fqn}.{kit.field}:int")
        listings.append((dep, "\n".join(lines) + "\n"))
    return listings, kits


def _kit_snippet(rng: random.Random, rid: str, kits: list[_Kit], statements: int, as_class: bool) -> Request:
    """A snippet of about *statements* shallow statements over unique names.

    In class form, about half of the kits used are imported; the rest are
    left for the patch.  Each kit yields a type sketch, and a method and a
    field sketch where the snippet uses them.  ``String`` is the only
    ``java.lang`` name and the knowledge base lacks it, so it is a builtin.
    """
    used = rng.sample(kits, max(2, min(len(kits), statements // 6)))
    imported = {kit.index for kit in used if as_class and rng.random() < 0.5}
    called: set[int] = set()
    fielded: set[int] = set()
    uses_string = False
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def scope(own: list[_Kit], size: int) -> list[str]:
        # One variable scope: declare each kit it owns, then use only those.
        nonlocal uses_string
        variables = [(fresh("k"), kit) for kit in own]
        lines = [f'{kit.simple} {name} = new {kit.simple}("a");' for name, kit in variables]
        ints: list[str] = []
        while len(lines) < size:
            form = rng.randrange(5)
            var, kit = rng.choice(variables)
            if form == 0:
                name = fresh("k")
                lines.append(f'{kit.simple} {name} = new {kit.simple}("b");')
                variables.append((name, kit))
            elif form == 1:
                lines.append(f'{var}.{kit.method}("c");')
                called.add(kit.index)
            elif form == 2:
                name = fresh("n")
                lines.append(f"int {name} = {kit.simple}.{kit.field};")
                ints.append(name)
                fielded.add(kit.index)
            elif form == 3 and ints:
                lines.append(f'String {fresh("s")} = "v" + {rng.choice(ints)};')
                uses_string = True
            elif form == 4 and ints:
                lines.append(f'if ({rng.choice(ints)} > 0) {{ {var}.{kit.method}("d"); }}')
                called.add(kit.index)
        return lines

    if as_class:
        # Methods of 50 statements; kits are dealt round-robin over them.
        parts = max(1, statements // 50)
        header = "".join(f"import {kit.fqn};\n" for kit in used if kit.index in imported)
        methods = []
        for p in range(parts):
            chunk = "\n".join(f"        {line}" for line in scope(used[p::parts], 50))
            methods.append(f"    void part{p}() {{\n{chunk}\n    }}\n")
        rest = "\npublic class Paste {\n" + "".join(methods) + "}\n"
    else:
        header = ""
        rest = "\n".join(scope(used, statements)) + "\n"

    bindings = []
    for kit in used:
        owner = kit.fqn if kit.index in imported else "?"
        type_render = kit.fqn if kit.index in imported else f"?.{kit.simple}"
        bindings.append((type_render, kit.fqn, kit.dep))
        if kit.index in called:
            bindings.append(
                (f"{owner}.{kit.method}(java.lang.String)?", f"{kit.fqn}.{kit.method}(java.lang.String)void", kit.dep)
            )
        if kit.index in fielded:
            bindings.append((f"{owner}.{kit.field}:?", f"{kit.fqn}.{kit.field}:int", kit.dep))
    fqns = sorted(kit.fqn for kit in used)
    missing = sorted(kit.fqn for kit in used if kit.index not in imported)
    expected = Expected(
        dependencies=tuple(sorted({kit.dep for kit in used})),
        imports=tuple(fqns),
        cost=len(used),
        bindings=tuple(bindings),
        builtins=("java.lang.String",) if uses_string else (),
        ambiguities=(),
        patch=_patched(missing, header, rest),
    )
    return Request(rid, header + rest, expected)


def _long_snippets(seed: int, tiny: bool) -> Workload:
    rng = _rng("long-snippets", seed)
    listings, kits = _kit_kb(4, 10) if tiny else _kit_kb(40, 40)
    # Statement counts per pass: a geometric ladder from 200 to 3000, fixed
    # so the seed changes content, not size.
    sizes = [60, 120] if tiny else [round(200 * 15 ** (i / 23)) for i in range(24)]
    requests = [
        _kit_snippet(rng, f"r{i:03d}", kits, size, as_class=i % 2 == 0) for i, size in enumerate(sizes)
    ]
    rng.shuffle(requests)
    warmup = _kit_snippet(rng, "warmup", kits, 100, as_class=True)
    return Workload("long-snippets", seed, listings, warmup, requests, budget_s=30.0)


def _cli_cold(seed: int, tiny: bool) -> Workload:
    rng = _rng("cli-cold", seed)
    listings, kits = _kit_kb(4, 10) if tiny else _kit_kb(64, 30)
    count = 2 if tiny else 20
    requests = [
        _kit_snippet(rng, f"r{i:03d}", kits, 12 + 2 * (i % 5), as_class=i % 2 == 0) for i in range(count)
    ]
    warmup = _kit_snippet(rng, "warmup", kits, 12, as_class=True)
    return Workload("cli-cold", seed, listings, warmup, requests, budget_s=20.0, via_cli=True)
