"""Spans around the calls into each commonslint layer, recorded from outside.

The tracer replaces module-level bindings (``cli.scan_repo``,
``scanner.parse_data_table`` ...) with wrappers that record one span per
call: name, start, end, parent span and run id, plus counts read from the
call's arguments and result. Spans stay in memory until the worker writes
them out at exit. ``layer_metrics`` turns one run's spans into the per-layer
metrics, including self times (a span's duration minus its children's).
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Callable


# Count hooks take the call's arguments and its result, which is None when
# the call raised.


def _table_counts(args, kwargs, result) -> dict:
    rows = len(result.rows) if result is not None else 0
    return {"rows": rows, "bytes": os.path.getsize(args[0])}


def _info_counts(args, kwargs, result) -> dict:
    return {"entries": len(result.entries) if result is not None else 0}


def _suite_counts(args, kwargs, result) -> dict:
    items = [item for report in result.reports for item in report.items] if result else []
    flagged = sum(item.verdict not in ("valid", "skipped") for item in items)
    return {"items": len(items), "flagged": flagged}


def _expand_counts(args, kwargs, result) -> dict:
    return {"entry": id(args[0]), "concrete": len(result) if result is not None else 0}


# (commonslint module, attribute, span name, count hook): the bindings the
# commands call.
TRACED = (
    ("cli", "load_config", "config.load_config", None),
    ("cli", "scan_repo", "scanner.scan_repo", None),
    ("cli", "run_suite", "checks.run_suite", _suite_counts),
    ("cli", "render_suite", "reports.render_suite", None),
    ("cli", "render_dictionary", "reports.render_dictionary", None),
    ("scanner", "classify", "scanner.classify", None),
    ("scanner", "parse_data_table", "scanner.parse_data_table", _table_counts),
    ("scanner", "parse_measure_info", "metadata.parse_measure_info", _info_counts),
    ("checks", "expand_dynamic", "expansion.expand_dynamic", _expand_counts),
    ("reports", "expand_dynamic", "expansion.expand_dynamic", _expand_counts),
)


class Tracer:
    """Records spans for every call through the bindings it wrapped."""

    def __init__(self, run_id: str, keep: tuple[str, ...] = ()) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.active = True
        # Last result of each span named in ``keep``, for reuse after the run.
        self.keep = keep
        self.results: dict[str, object] = {}
        self._stack: list[int] = []

    def span(self, name: str, call: Callable, *args, counts=None, **kwargs):
        """Call ``call`` inside a span named ``name``; return its result."""
        if not self.active:
            return call(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "parent": parent, "run": self.run_id, "failed": False}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        except BaseException:
            record["end"] = time.perf_counter()
            record["failed"] = True
            if counts is not None:
                record.update(counts(args, kwargs, None))
            raise
        finally:
            self._stack.pop()
        record["end"] = time.perf_counter()
        if counts is not None:
            record.update(counts(args, kwargs, result))
        if name in self.keep:
            self.results[name] = result
        return result

    def install(self) -> None:
        """Wrap every binding in ``TRACED`` on the imported commonslint modules."""
        for module_name, attr, name, counts in TRACED:
            module = importlib.import_module(f"commonslint.{module_name}")
            original = getattr(module, attr)

            def traced(*args, _original=original, _name=name, _counts=counts, **kwargs):
                return self.span(_name, _original, *args, counts=_counts, **kwargs)

            setattr(module, attr, traced)


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], command: str) -> dict[str, float]:
    """Per-layer totals, counts and self times of one command run."""
    own = _self_times(spans)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, mine in zip(spans, own):
        name = s["name"]
        total[name] = total.get(name, 0.0) + s["end"] - s["start"]
        self_time[name] = self_time.get(name, 0.0) + mine
        calls[name] = calls.get(name, 0) + 1

    def summed(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    out = {
        "config.load_config_s": total.get("config.load_config", 0.0),
        "scanner.scan_repo_s": total.get("scanner.scan_repo", 0.0),
        "scanner.scan_repo_self_s": self_time.get("scanner.scan_repo", 0.0),
        "scanner.classify_s": total.get("scanner.classify", 0.0),
        "scanner.files": calls.get("scanner.classify", 0),
        "scanner.parse_data_table_s": total.get("scanner.parse_data_table", 0.0),
        "scanner.tables": calls.get("scanner.parse_data_table", 0),
        "scanner.parse_failures": sum(
            s["failed"] for s in spans if s["name"] == "scanner.parse_data_table"
        ),
        "scanner.rows": summed("scanner.parse_data_table", "rows"),
        "scanner.bytes_read": summed("scanner.parse_data_table", "bytes"),
        "metadata.parse_measure_info_s": total.get("metadata.parse_measure_info", 0.0),
        "metadata.files": calls.get("metadata.parse_measure_info", 0),
        "metadata.entries": summed("metadata.parse_measure_info", "entries"),
        f"cli.{command}_self_s": self_time.get("cli.main", 0.0),
    }
    parse_s = out["scanner.parse_data_table_s"]
    out["scanner.rows_per_s"] = out["scanner.rows"] / parse_s if parse_s else 0.0
    if command == "check":
        out.update({
            "checks.run_suite_s": total.get("checks.run_suite", 0.0),
            "checks.items": summed("checks.run_suite", "items"),
            "checks.items_flagged": summed("checks.run_suite", "flagged"),
            "reports.render_suite_s": total.get("reports.render_suite", 0.0),
        })
    else:
        # Expansion is counted in dict, the command that expands every entry
        # for its pages; each distinct entry object counts its measures once.
        expansions = [s for s in spans if s["name"] == "expansion.expand_dynamic"]
        concrete = {s["entry"]: s["concrete"] for s in expansions if not s["failed"]}
        out.update({
            "expansion.expand_dynamic_s": total.get("expansion.expand_dynamic", 0.0),
            "expansion.expand_dynamic_calls": len(expansions),
            "expansion.concrete_measures": sum(concrete.values()),
            "reports.render_dictionary_s": total.get("reports.render_dictionary", 0.0),
            "reports.render_dictionary_self_s": self_time.get("reports.render_dictionary", 0.0),
        })
    return out
