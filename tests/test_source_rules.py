"""Source rules: where in `src/` a pattern may appear.

Each row holds an id, a regular expression matched against every line of
the package's modules (`src/**/*.py`), the modules the rule reads (None
for all of them), the modules that own the pattern and may use it, and
the reason for the rule.  A matching line anywhere else fails the row.
A module named in a row must exist, so a rename cannot turn a row into
a check of nothing.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))
CHECKS = ("verification.py", "analysis.py", "periodic.py")  # the modules that hold checks

# (id, pattern, modules read, owners, reason)
RULES = [
    ("no-eigensolve", r"linalg.eig", None, (),
     "the library certifies spectra from entry identities: no eigensolve in src/"),
    ("one-star-rule", r"star_gamma", None, ("topology.py",),
     "one star rule: only topology.at_star reads the star tolerance"),
    ("one-certificate-domain", r"\b_interior\b", None, ("analysis.py", "topology.py"),
     "one owner of the certificate's domain: only analysis uses _interior (topology's ledger "
     "names it), so no check filters its draws by that domain"),
    ("map-vertex-tolerance", r"\bvertex_guard\b", None, ("dynamics.py", "topology.py"),
     "one vertex rule: only dynamics reads vertex_guard, as VERTEX_MAX, which both the map's "
     "guard and the certificate's domain (analysis._interior) compare against"),
    ("one-vertex-guard", r"\bVERTEX_MAX\b", None, ("dynamics.py", "analysis.py"),
     "one guard for every state: only dynamics (df_map, simulate) and analysis (the "
     "certificate's domain) compare with VERTEX_MAX, so no command or check grows a vertex "
     "guard of its own"),
    ("one-map-kernel",r"\b_issues\b", None, ("dynamics.py",),
     "one kernel for the map's arithmetic: only dynamics calls the unguarded _issues "
     "(df_map and simulate guard what it maps)"),
    ("one-burn-in-window", r"burn_in \+ 1|max\(burn_in", None, ("dynamics.py",),
     "one post-burn-in window: only dynamics (Trajectory.post_burn_in) slices the states "
     "after the burn-in"),
    ("one-bit-pattern-dedup", r"np\.void", None, ("dynamics.py",),
     "one bit-pattern dedup: only dynamics (Trajectory.distinct) views states as np.void, so "
     "every command runs one np.unique over its states and no caller grows a second dedup"),
    ("one-double-writer", r"17g", None, ("topology.py",),
     "one writer of doubles: only topology._format_rows writes %.17g"),
    ("one-file-writer", r"open\([^)]*[\"']w", None, ("topology.py",),
     "one file writer: only topology (_write_text) opens a file for writing"),
    ("one-validation-owner", r"\b(validate|is_irreducible)\(", None, ("topology.py",),
     "one owner of the validation rule: only topology calls validate or is_irreducible "
     "(load_program validates a program as one stack)"),
    ("no-nothing-checked-margin", r"-np.inf", CHECKS, (),
     "a check that tests nothing FAILs: no -inf 'nothing checked' margin in the modules "
     "that hold checks"),
    ("stacked-draws", r"range\(samples\)", ("verification.py",), (),
     "every check draws its samples as stacks: no per-draw loop in verification"),
    ("one-state-sampler", r"rng\.(random|choice|uniform|integers)\(", ("verification.py",), (),
     "every random state of verify comes from sample_interior, the sampler the benchmark "
     "traces: no other draw in verification"),
    ("correctly-rounded-squares", r"\*\* ?2\b", ("analysis.py", "periodic.py"), (),
     "the solvers square as d * d, correctly rounded: d ** 2 calls the C library's pow, "
     "whose last bit differs between libraries"),
    ("one-lapack-call-site", r"linalg", None, ("topology.py",),
     "one LAPACK call site: only topology (stationary_vector) calls linalg, so the "
     "dependence of outputs on the BLAS kernel stays in one function"),
    ("one-phase-convention", r"% len\(|% period", ("periodic.py", "dynamics.py", "cli.py"), (),
     "one phase convention: only topology.Periodic.phases maps issues to phases, so the "
     "modules that run or solve a periodic program take its phases instead of a modulus"),
]


def rule_hits(pattern, scope, owners, sources):
    """The lines of `sources` (module path -> text) that break a rule, as path:line: text."""
    regex = re.compile(pattern)
    return [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path, text in sources.items() if (scope is None or path.name in scope) and path.name not in owners
            for number, line in enumerate(text.splitlines(), 1) if regex.search(line)]


@pytest.mark.parametrize("pattern, scope, owners, reason",
                         [rule[1:] for rule in RULES], ids=[rule[0] for rule in RULES])
def test_source_rule(pattern, scope, owners, reason):
    names = {path.name for path in MODULES}
    assert set(scope or ()) | set(owners) <= names, f"a module of the rule is missing: {reason}"
    hits = rule_hits(pattern, scope, owners, {path: path.read_text() for path in MODULES})
    assert not hits, reason + "\n" + "\n".join(hits)


def test_phase_rule_flags_a_phase_map_planted_in_periodic():
    sources = {path: path.read_text() for path in MODULES}
    [path] = [path for path in MODULES if path.name == "periodic.py"]
    sources[path] += "    phase = order[(s - 1) % len(order)]\n"
    [(pattern, scope, owners)] = [rule[1:4] for rule in RULES if rule[0] == "one-phase-convention"]
    line = len(sources[path].splitlines())
    assert rule_hits(pattern, scope, owners, sources) == [
        f"{path.relative_to(SRC)}:{line}: phase = order[(s - 1) % len(order)]"]
