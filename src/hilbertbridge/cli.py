"""``hb`` — run, list and validate the packaged experiments.

Usage::

    hb list
    hb validate CONFIG
    hb EXPERIMENT [--seed N] [--trials N] [--key value]... [--config FILE]

Flags override config-file values.  Stochastic experiments require an
explicit ``--seed`` (or a ``seed`` line in the config): there is no silent
nondeterminism.  Exit status is 0 when every check passes, 1 when a check
fails (outputs are still written), 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import time
from pathlib import Path

from hilbertbridge import experiments

__all__ = ["Diagnostic", "main", "parse_config_text", "validate_config"]


# keys every experiment section may carry besides its parameter schema
_COMMON_KEYS = ("seed", "trials", "output_dir", "format")

# alternate spellings accepted on the command line and in config files
_PARAM_ALIASES = {"estimates": {"lambda": "wavelength"}}


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


def parse_config_text(
    text: str, path: str = "<config>"
) -> tuple[dict, list[Diagnostic]]:
    """Parse line-oriented ``[section]`` / ``key = value`` text.

    Returns ``(sections, diagnostics)`` where ``sections`` maps section name
    to ``{"_line": header_line, key: (raw_value, line)}``.  Malformed lines
    are reported with their 1-based line numbers and skipped.
    """
    sections: dict = {}
    diags: list[Diagnostic] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                diags.append(Diagnostic(path, lineno, f"malformed section header {line!r}"))
                current = None
                continue
            name = line[1:-1].strip()
            current = sections.setdefault(name, {"_line": lineno})
            continue
        if "=" not in line:
            diags.append(
                Diagnostic(path, lineno, f"expected 'key = value', got {line!r}")
            )
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            diags.append(Diagnostic(path, lineno, "empty key"))
            continue
        if current is None:
            diags.append(
                Diagnostic(path, lineno, f"key {key!r} appears before any [section]")
            )
            continue
        current[key] = (value, lineno)
    return sections, diags


def _canonical_key(experiment: str, key: str) -> str:
    return _PARAM_ALIASES.get(experiment, {}).get(key, key)


def _section_values(name: str, body: dict) -> dict:
    """Raw values of a parsed section, keyed by canonical name."""
    return {_canonical_key(name, k): v[0] for k, v in body.items() if k != "_line"}


def _int_field(raw, field: str) -> int:
    try:
        return int(str(raw), 0)
    except ValueError:
        raise ValueError(f"field {field!r}: expected an integer, got {raw!r}")


def _section_config(name: str, values: dict) -> experiments.ExperimentConfig:
    """The config of experiment ``name`` from raw values keyed by canonical
    name; ``values`` is consumed."""
    seed, trials = (_int_field(values.pop(key), key) if key in values else None
                    for key in ("seed", "trials"))
    output_dir = str(values.pop("output_dir", "hb-output"))
    fmt = str(values.pop("format", experiments.OutputFormat.CSV)).lower()
    return experiments.ExperimentConfig(name, values, seed, trials, output_dir, fmt)


def _refusal_line(name: str, body: dict, message: str) -> int:
    """Line of the first key of a section ``message`` names, else its header."""
    for key, located in body.items():
        pattern = rf"(?<!\w){re.escape(_canonical_key(name, key))}(?!\w)"
        if key != "_line" and re.search(pattern, message):
            return located[1]
    return body["_line"]


def validate_config(path: str) -> list[Diagnostic]:
    """Check a config file as a run checks it, without running anything.

    Each section must name an experiment and carry ``trials``, and its
    config must pass :func:`experiments.prepare`.
    """
    sections, diags = parse_config_text(Path(path).read_text(), path)
    for name, body in sections.items():
        if name not in experiments.REGISTRY:
            diags.append(Diagnostic(path, body["_line"], f"unknown experiment {name!r}"))
            continue
        if "trials" not in body:
            diags.append(Diagnostic(path, body["_line"],
                                    f"section [{name}] is missing 'trials'"))
        try:
            experiments.prepare(_section_config(name, _section_values(name, body)))
        except ValueError as exc:
            diags.append(Diagnostic(path, _refusal_line(name, body, str(exc)), str(exc)))
    return sorted(diags, key=lambda d: d.line)


def _load_file_section(path: str, experiment: str) -> dict:
    """Raw string values for one experiment from a config file."""
    sections, diags = parse_config_text(Path(path).read_text(), path)
    if diags:
        raise ValueError("\n".join(str(d) for d in diags))
    return _section_values(experiment, sections.get(experiment, {}))


def _experiment_parser(name: str) -> argparse.ArgumentParser:
    entry = experiments.REGISTRY[name]
    parser = argparse.ArgumentParser(
        prog=f"hb {name}", description=entry.description
    )
    alias_of = {
        canon: alias for alias, canon in _PARAM_ALIASES.get(name, {}).items()
    }
    for key in entry.schema:
        flags = [f"--{key.replace('_', '-')}"]
        if "_" in key:
            flags.append(f"--{key}")
        if key in alias_of:
            flags.append(f"--{alias_of[key]}")
        parser.add_argument(*flags, dest=key, default=None, metavar="VALUE")
    parser.add_argument("--seed", default=None, metavar="N")
    parser.add_argument("--trials", default=None, metavar="N")
    parser.add_argument("--output-dir", "--output_dir", dest="output_dir",
                        default=None, metavar="DIR")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--config", default=None, metavar="FILE")
    return parser


def _build_config(name: str, ns: argparse.Namespace) -> experiments.ExperimentConfig:
    values = {} if ns.config is None else _load_file_section(ns.config, name)
    for key in (*experiments.REGISTRY[name].schema, *_COMMON_KEYS):
        if getattr(ns, key) is not None:
            values[key] = getattr(ns, key)
    return _section_config(name, values)


def _cmd_list() -> int:
    for name, description, topic in experiments.catalog():
        print(f"{name:24s} {description}  [{topic}]")
    print(f"{len(experiments.catalog())} experiments registered")
    return 0


def _cmd_validate(args: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="hb validate")
    parser.add_argument("path")
    ns = parser.parse_args(args)
    try:
        diags = validate_config(ns.path)
    except OSError as exc:
        print(f"error: cannot read {ns.path}: {exc}", file=sys.stderr)
        return 2
    for diag in diags:
        print(diag)
    if diags:
        return 1
    print(f"{ns.path}: ok")
    return 0


def _cmd_run(name: str, args: list[str]) -> int:
    parser = _experiment_parser(name)
    ns = parser.parse_args(args)
    try:
        config = _build_config(name, ns)
        start = time.perf_counter()
        summary = experiments.run(config)
    except (ValueError, OSError) as exc:  # refused value or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    for check in summary.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"[{status}] {check.name}: measured={check.measured:.6g} "
            f"reference={check.reference:.6g} tol={check.tolerance:.3g} "
            f"({check.mode}, {check.source})"
        )
    n_pass = sum(c.passed for c in summary.checks)
    print(
        f"{name}: {n_pass}/{len(summary.checks)} checks passed "
        f"in {wall:.2f}s  (outputs in {config.output_dir}/)"
    )
    return 0 if summary.passed else 1


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if args else 2
    command, rest = args[0], args[1:]
    try:
        if command == "list":
            return _cmd_list()
        if command == "validate":
            return _cmd_validate(rest)
        if command in experiments.REGISTRY:
            return _cmd_run(command, rest)
    except SystemExit as exc:  # argparse --help or usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    print(
        f"error: unknown experiment {command!r} "
        f"(run 'hb list' for the catalog)",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
