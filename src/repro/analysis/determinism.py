"""Determinism rules for fabric-worker and digest-path modules.

The execution fabric promises that a sweep run serially and a sweep run with
``--jobs N`` produce byte-identical artifacts.  That promise rests on worker
code being a pure function of its payload and on every serialization that
feeds a digest being canonical.  These rules flag the classic ways that
promise quietly breaks: filesystem enumeration order, set iteration order,
wall-clock reads, the process-global RNG, per-process object identity, and
non-canonical JSON.  All but the last are queries over the effect seeds of
:mod:`repro.analysis.effects`, so the flat per-file rules and the
interprocedural contracts share one seed table and one traversal.

Scope is intentionally narrow — the modules that run inside workers or feed
``Task.digest()`` / cache keys — so that, e.g., the CLI printing a timestamp
is not a finding but a worker reading one is.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.analysis import astutil, effects
from repro.analysis.framework import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    FileContext,
    Finding,
    Rule,
    rule,
)

#: modules that run inside sweep workers or feed digests/cache keys;
#: ``api.py`` hosts the facade's worker (``run_api_cell``), ``serve/``
#: answers concurrent requests through it, and ``obs/`` rides along inside
#: workers (spans/metrics merge into result envelopes), so all inherit the
#: contract
DETERMINISM_SCOPE = (
    "exec/",
    "api.py",
    "benchmark/tasks.py",
    "cost/tasks.py",
    "scenarios/engine.py",
    "graph/",
    "serve/",
    "obs/",
)

#: canonical-JSON scope: everywhere a ``json.dumps`` lands in an artifact a
#: reproduced run is diffed against (result logs, strawman answers, digest
#: material), not just the worker modules
JSON_SCOPE = DETERMINISM_SCOPE + (
    "benchmark/logger.py",
    "synthesis/engine.py",
    "techniques/",
)

def _seed_findings(rule_: Rule, ctx: FileContext, kind: str,
                   consequence: str) -> Iterator[Finding]:
    """One finding per site where the effect engine seeded *kind* in *ctx*.

    The sites come from the effect engine's single traversal
    (:func:`repro.analysis.effects.analyze_project`), so each pattern is
    defined once; a site seeded twice at one position (``os.environ.get``
    is both a call and an attribute read) yields one finding.
    """
    reported: Set[Tuple[int, int]] = set()
    for seed in effects.project_for(ctx).seeds_in(ctx.relpath):
        if seed.kind != kind or (seed.lineno, seed.col) in reported:
            continue
        reported.add((seed.lineno, seed.col))
        yield ctx.finding(rule_, None, f"{seed.description}: {consequence}",
                          line=seed.lineno, col=seed.col)


@rule("det-unsorted-listing", severity=SEVERITY_ERROR, scope=DETERMINISM_SCOPE,
      description="directory enumeration whose order reaches the caller unsorted",
      suggestion="wrap the enumeration in sorted(...) so iteration order "
                 "does not depend on the filesystem")
def check_unsorted_listing(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    return _seed_findings(rule_, ctx, "listing",
                          "iterated in filesystem order, so serial and "
                          "--jobs N runs may disagree")


@rule("det-set-iteration", severity=SEVERITY_ERROR, scope=DETERMINISM_SCOPE,
      description="iteration over a set expression (hash order is per-process)",
      suggestion="iterate sorted(...) over the set, or keep insertion order "
                 "with a dict/list")
def check_set_iteration(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    return _seed_findings(rule_, ctx, "set-iteration",
                          "string hash order differs per process "
                          "(PYTHONHASHSEED), so any ordered output derived "
                          "from it is nondeterministic")


@rule("det-wallclock", severity=SEVERITY_ERROR, scope=DETERMINISM_SCOPE,
      description="wall-clock read in worker/digest code",
      suggestion="workers must be pure functions of their payload; pass "
                 "timestamps in via the payload, or use time.perf_counter() "
                 "for telemetry-only durations")
def check_wallclock(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    return _seed_findings(rule_, ctx, "wallclock",
                          "its value differs per run and per process")


@rule("det-unseeded-random", severity=SEVERITY_ERROR, scope=DETERMINISM_SCOPE,
      description="use of the process-global random generator",
      suggestion="derive a seeded random.Random(...) instance from payload "
                 "material instead of the module-level functions")
def check_unseeded_random(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    return _seed_findings(rule_, ctx, "global-random",
                          "the generator's state depends on call order "
                          "across the whole process")


@rule("det-object-identity", severity=SEVERITY_ERROR, scope=DETERMINISM_SCOPE,
      description="id()/hash() in code whose values may reach payloads or digests",
      suggestion="use stable keys (addresses, names, content digests via "
                 "hashlib) instead of per-process object identity")
def check_object_identity(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    return _seed_findings(rule_, ctx, "identity",
                          "PYTHONHASHSEED / allocator dependent; it must "
                          "never leak into serialized payloads, digests, or "
                          "cache keys")


@rule("det-env-read", severity=SEVERITY_WARNING, scope=DETERMINISM_SCOPE,
      description="environment read in worker/digest code (machine-dependent)",
      suggestion="resolve environment configuration in the parent process "
                 "and pass it through the payload, so two machines running "
                 "the same sweep agree byte-for-byte")
def check_env_read(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    return _seed_findings(rule_, ctx, "env",
                          "behaviour now depends on the invoking machine, "
                          "not the payload")


@rule("det-json-sort-keys", severity=SEVERITY_ERROR, scope=JSON_SCOPE,
      description="json.dumps without sort_keys=True in a digest/artifact path",
      suggestion="pass sort_keys=True so the serialization is canonical "
                 "regardless of dict build order")
def check_json_sort_keys(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    bare_dumps = astutil.from_imports(ctx.tree, "json") & {"dumps"}
    for call in astutil.walk_calls(ctx.tree):
        dotted = astutil.dotted_name(call.func)
        is_dumps = dotted == "json.dumps" or (
            isinstance(call.func, ast.Name) and call.func.id in bare_dumps)
        if not is_dumps:
            continue
        if any(kw.arg is None for kw in call.keywords):
            continue  # **kwargs splat: cannot decide statically
        sort_kw = next((kw for kw in call.keywords if kw.arg == "sort_keys"), None)
        if sort_kw is None or (isinstance(sort_kw.value, ast.Constant)
                               and sort_kw.value.value is not True):
            yield ctx.finding(
                rule_, call,
                "json.dumps(...) without sort_keys=True emits keys in dict "
                "build order; two processes building the same mapping "
                "differently produce different bytes")
