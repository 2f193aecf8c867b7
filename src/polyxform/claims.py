"""The claims ledger: source claims mapped to experiments and verdicts.

The ledger ships as a versioned JSON document in the repository.  Test
and experiment runs never rewrite it implicitly; verdicts change only
when an update is explicitly requested (the CLI's --update-ledger).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional

from .errors import UsageError

LEDGER_VERSION = 1

VERDICTS = ("pending", "confirmed", "refuted", "not-testable-at-desk-scale")

DEFAULT_LEDGER_PATH = Path(__file__).resolve().parents[2] / "claims_ledger.json"


@dataclass
class ClaimsLedgerEntry:
    claim_id: str
    source: str  # section of the source text the claim comes from
    quote: str  # short verbatim phrasing of the claim
    experiment: str  # CLI invocation that measures it
    verdict: str
    evidence: str  # pointer to the artifact or measurement backing the verdict


def load_ledger(path: Optional[Path] = None) -> List[ClaimsLedgerEntry]:
    """The ledger's claims; UsageError for a file that is not a ledger."""
    path = Path(path or DEFAULT_LEDGER_PATH)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise UsageError(f"ledger {path} is not JSON: {exc}") from exc
    version = doc.get("ledger_version") if isinstance(doc, dict) else None
    if version != LEDGER_VERSION:
        raise UsageError(f"unsupported ledger version {version!r}")
    try:
        return [ClaimsLedgerEntry(**e) for e in doc["claims"]]
    except (KeyError, TypeError) as exc:  # no claims list, or a claim's fields wrong
        raise UsageError(f"malformed ledger {path}: {exc!r}") from exc


def save_ledger(entries: List[ClaimsLedgerEntry], path: Optional[Path] = None) -> None:
    """Write the ledger whole or not at all: the text goes to a temporary
    file beside it, which then replaces it, so a write that fails part-way
    leaves the old ledger, and no temporary file, behind."""
    path = Path(path or DEFAULT_LEDGER_PATH)
    doc = {
        "ledger_version": LEDGER_VERSION,
        "claims": [asdict(e) for e in entries],
    }
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        if path.exists():
            shutil.copymode(path, temporary)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def set_verdict(
    claim_id: str,
    verdict: str,
    evidence: str,
    path: Optional[Path] = None,
) -> List[ClaimsLedgerEntry]:
    """The ledger's claims with one claim's verdict and evidence set.

    Nothing is written: save_ledger persists the result, so a caller can
    refuse an unreadable ledger or an unknown claim before it writes
    anything else.
    """
    if verdict not in VERDICTS:
        raise UsageError(f"verdict must be one of {VERDICTS}")
    entries = load_ledger(path)
    for entry in entries:
        if entry.claim_id == claim_id:
            entry.verdict = verdict
            entry.evidence = evidence
            return entries
    raise UsageError(f"no ledger entry with id {claim_id!r}")


def get_entry(claim_id: str, path: Optional[Path] = None) -> ClaimsLedgerEntry:
    for entry in load_ledger(path):
        if entry.claim_id == claim_id:
            return entry
    raise UsageError(f"no ledger entry with id {claim_id!r}")
