"""Shared output machinery for the lint and analysis CLIs.

Both ``repro.cli lint`` and ``repro.cli analyze`` render the same
:class:`~repro.lint.findings.Finding` model, so the serializers live here
once: byte-stable JSON (sorted keys, sorted findings, trailing newline) and
SARIF 2.1.0 for code-scanning UIs.  Byte stability is a hard contract —
two runs over an unchanged tree must produce identical bytes, which is what
lets CI diff artifacts and the baseline ratchet stay meaningful.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Sequence

from repro.lint.findings import Finding

#: SARIF spec version emitted by :func:`findings_to_sarif`.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Map repro severities onto SARIF result levels.
_SARIF_LEVEL = {"warning": "warning", "error": "error"}


def dumps_json(payload: dict) -> str:
    """The byte-stable JSON text: sorted keys, 2-space indent, trailing LF.

    The serializer behind the JSON artifacts people read and CI diffs
    (lint/analyze output, portal exports, attribution reports).  Checkpoint
    snapshots are compact instead (``durability.codec.canonical_json``):
    ``indent`` sends CPython to its slow pure-Python encoder.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_json(payload: dict, out: IO[str]) -> None:
    """Serialize ``payload`` byte-stably onto ``out`` (see :func:`dumps_json`)."""
    out.write(dumps_json(payload))


def findings_to_sarif(
    findings: Sequence[Finding],
    errors: Sequence[str] = (),
    *,
    tool_name: str,
    rule_docs: Iterable[tuple[str, str, str, str]] = (),
    information_uri: str = "docs/INVARIANTS.md",
) -> dict:
    """Render findings as a SARIF 2.1.0 log (one run, one tool).

    ``rule_docs`` rows are ``(rule_id, name, severity, summary)`` as yielded
    by the rule registries; only rules that appear there get a ``rules``
    catalogue entry (SARIF consumers resolve results by ``ruleId`` alone, so
    uncatalogued rules still render).  File-level errors (unparseable files)
    become ``toolExecutionNotifications`` so they are not silently dropped.
    """
    rules = [
        {
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": _SARIF_LEVEL.get(severity, "warning")},
        }
        for rule_id, name, severity, summary in sorted(rule_docs)
    ]
    results = [
        {
            "ruleId": f.rule_id,
            "level": _SARIF_LEVEL.get(f.severity, "warning"),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.file},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,  # SARIF columns are 1-based
                        },
                    }
                }
            ],
        }
        for f in sorted(findings, key=Finding.sort_key)
    ]
    notifications = [
        {"level": "error", "message": {"text": error}} for error in sorted(errors)
    ]
    run: dict = {
        "tool": {
            "driver": {
                "name": tool_name,
                "informationUri": information_uri,
                "rules": rules,
            }
        },
        "results": results,
    }
    if notifications:
        run["invocations"] = [
            {
                "executionSuccessful": False,
                "toolExecutionNotifications": notifications,
            }
        ]
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}


def render_sarif(
    findings: Sequence[Finding],
    errors: Sequence[str],
    out: IO[str],
    *,
    tool_name: str,
    rule_docs: Iterable[tuple[str, str, str, str]] = (),
) -> None:
    """Serialize findings as byte-stable SARIF onto ``out``."""
    dump_json(
        findings_to_sarif(findings, errors, tool_name=tool_name, rule_docs=rule_docs),
        out,
    )
