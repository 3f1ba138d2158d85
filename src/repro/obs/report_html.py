"""Self-contained HTML rendering of coverage documents.

One static page per run — inline CSS, no scripts, no external assets —
so the artifact can be archived next to ``coverage.json`` and opened
anywhere (CI artifact viewers included).  The page renders, per
application: the equation-dispatch-cell matrix (covered / uncovered /
missing), the per-equation fire table, the frontier saturation curve
of the state-graph census, W-grammar usage, and the per-check
provenance records with any counterexample witnesses.

Rendering is a pure function of the documents, so the HTML inherits
their byte-stability across worker counts and cache warmth.
"""

from __future__ import annotations

from html import escape
from typing import Any, Iterable, Mapping

__all__ = ["coverage_html"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2.2rem; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #ccc; padding: .3rem .6rem;
         text-align: left; font-size: .9rem; }
th { background: #f0f0f5; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.covered { background: #d8f3dc; }
.uncovered { background: #ffe0e0; font-weight: bold; }
.missing { background: #eee; color: #888; }
.ok { color: #2d6a4f; font-weight: bold; }
.fail { color: #c1121f; font-weight: bold; }
.skip { color: #888; }
.summary { font-size: 1.05rem; }
.bar { display: inline-block; height: .7rem; background: #4895ef;
       vertical-align: middle; }
code, pre { font-family: ui-monospace, 'SF Mono', Menlo, monospace;
            font-size: .85rem; }
pre.witness { background: #fff4f4; border-left: 3px solid #c1121f;
              padding: .5rem .8rem; overflow-x: auto; }
.digest { color: #888; font-size: .78rem; word-break: break-all; }
"""


def _cell_matrix(rewrite: Mapping[str, Any]) -> str:
    """The (query, constructor) dispatch-cell matrix as a table."""
    cells = rewrite["cells"]
    queries: list[str] = []
    constructors: list[str] = []
    by_key: dict[tuple[str, str], Mapping[str, Any]] = {}
    for cell in cells:
        if cell["query"] not in queries:
            queries.append(cell["query"])
        if cell["constructor"] not in constructors:
            constructors.append(cell["constructor"])
        by_key[(cell["query"], cell["constructor"])] = cell
    head = "".join(
        f"<th>{escape(constructor)}</th>" for constructor in constructors
    )
    rows = []
    for query in queries:
        tds = []
        for constructor in constructors:
            cell = by_key[(query, constructor)]
            status = cell["status"]
            if status == "missing":
                text = "&mdash;"
            else:
                fired = sum(
                    1 for entry in cell["equations"] if entry["fired"]
                )
                text = f"{fired}/{len(cell['equations'])} eq"
            title = f"{escape(query)}({escape(constructor)}): {status}"
            tds.append(
                f'<td class="{status}" title="{title}">{text}</td>'
            )
        rows.append(
            f"<tr><th>{escape(query)}</th>{''.join(tds)}</tr>"
        )
    return (
        "<table><tr><th>query \\ constructor</th>"
        + head
        + "</tr>"
        + "".join(rows)
        + "</table>"
    )


def _equation_table(rewrite: Mapping[str, Any]) -> str:
    """Per-equation fire table."""
    rows = []
    for equation in rewrite["equations"]:
        fired = (
            '<span class="ok">fired</span>'
            if equation["fired"]
            else '<span class="fail">never fired</span>'
        )
        rows.append(
            f"<tr><td class=\"num\">{equation['index']}</td>"
            f"<td>{equation['kind']}</td>"
            f"<td>{escape(equation['label'] or '')}</td>"
            f"<td><code>{escape(equation['rule'])}</code></td>"
            f"<td>{fired}</td></tr>"
        )
    return (
        "<table><tr><th>#</th><th>kind</th><th>label</th>"
        "<th>rule</th><th>status</th></tr>" + "".join(rows) + "</table>"
    )


def _census_table(explore: Mapping[str, Any] | None) -> str:
    """Frontier saturation curve of the state-graph census."""
    if explore is None:
        return "<p>No exploration recorded.</p>"
    peak = max(
        (level["frontier"] for level in explore["levels"]), default=1
    )
    rows = []
    for level in explore["levels"]:
        width = max(2, round(160 * level["frontier"] / peak))
        rows.append(
            f"<tr><td class=\"num\">{level['depth']}</td>"
            f"<td class=\"num\">{level['frontier']}</td>"
            f"<td class=\"num\">{level['transitions']}</td>"
            f"<td class=\"num\">{level['cumulative_states']}</td>"
            f'<td><span class="bar" style="width:{width}px"></span>'
            "</td></tr>"
        )
    truncated = (
        ' <span class="fail">(truncated by the state cap)</span>'
        if explore["truncated"]
        else " (saturated: the frontier emptied)"
    )
    return (
        f"<p>{explore['states']} states, "
        f"{explore['transitions']} transitions, "
        f"depth {explore['depth']}{truncated}</p>"
        "<table><tr><th>depth</th><th>frontier</th>"
        "<th>transitions</th><th>cumulative</th><th></th></tr>"
        + "".join(rows)
        + "</table>"
    )


def _wgrammar_table(wgrammar: Mapping[str, Any]) -> str:
    """Hyperrule and metanotion usage tables."""
    parts = []
    rows = "".join(
        f"<tr><td><code>{escape(label)}</code></td>"
        f'<td class="num">{count}</td></tr>'
        for label, count in wgrammar["hyperrules"].items()
    )
    if rows:
        parts.append(
            "<table><tr><th>hyperrule</th><th>applications</th></tr>"
            + rows
            + "</table>"
        )
    unused = wgrammar.get("unused_hyperrules")
    if unused:
        labels = ", ".join(f"<code>{escape(u)}</code>" for u in unused)
        parts.append(f"<p>Unused hyperrules: {labels}</p>")
    elif unused is not None:
        parts.append("<p>Every hyperrule was applied.</p>")
    rows = "".join(
        f"<tr><td><code>{escape(name)}</code></td>"
        f'<td class="num">{count}</td></tr>'
        for name, count in wgrammar["metanotions"].items()
    )
    if rows:
        parts.append(
            "<table><tr><th>metanotion</th>"
            "<th>membership queries</th></tr>" + rows + "</table>"
        )
    if not parts:
        parts.append("<p>No W-grammar activity recorded.</p>")
    return "".join(parts)


def _provenance_section(checks: Iterable[Mapping[str, Any]]) -> str:
    """Per-check provenance records with witnesses."""
    rows = []
    witnesses_html = []
    for check in checks:
        if check.get("aborted"):
            verdict = '<span class="skip">aborted</span>'
        elif check.get("skipped"):
            verdict = '<span class="skip">skipped</span>'
        elif check.get("ok"):
            verdict = '<span class="ok">ok</span>'
        else:
            verdict = '<span class="fail">FAILED</span>'
        params = ", ".join(
            f"{key}={value}"
            for key, value in check.get("params", {}).items()
        )
        digest = check.get("coverage_digest") or ""
        rows.append(
            f"<tr><td>{escape(check['name'])}</td>"
            f"<td>{escape(check.get('title', ''))}</td>"
            f"<td>{verdict}</td>"
            f"<td><code>{escape(params)}</code></td>"
            f"<td class=\"digest\">{escape(check['fingerprint'][:16])}"
            "</td>"
            f'<td class="digest">{escape(digest[:16])}</td></tr>'
        )
        for witness in check.get("witnesses", ()):
            witnesses_html.append(
                f"<h4>{escape(check['name'])}</h4>"
                f'<pre class="witness">{escape(witness)}</pre>'
            )
    table = (
        "<table><tr><th>check</th><th>title</th><th>verdict</th>"
        "<th>params</th><th>fingerprint</th><th>coverage</th></tr>"
        + "".join(rows)
        + "</table>"
    )
    if witnesses_html:
        table += "<h3>Counterexample witnesses</h3>" + "".join(
            witnesses_html
        )
    return table


def _document_section(document: Mapping[str, Any]) -> str:
    """One application's full section."""
    rewrite = document["rewrite"]
    summary = rewrite["summary"]
    name = document.get("application") or "specification"
    pct = f"{summary['coverage'] * 100:.1f}%"
    uncovered = summary["uncovered_cells"]
    if uncovered:
        holes = ", ".join(
            f"<code>{escape(cell)}</code>" for cell in uncovered
        )
        verdict = (
            f'<span class="fail">{pct} cell coverage</span> &mdash; '
            f"not exercised: {holes}"
        )
    else:
        verdict = (
            f'<span class="ok">{pct} cell coverage</span> &mdash; '
            "every dispatch cell exercised"
        )
    parts = [
        f"<h2>{escape(name)}</h2>",
        f'<p class="summary">{verdict}</p>',
        f"<p class=\"digest\">digest {escape(document['digest'])}</p>",
        "<h3>Equation dispatch cells</h3>",
        _cell_matrix(rewrite),
        "<h3>Equations</h3>",
        _equation_table(rewrite),
        "<h3>State-graph census</h3>",
        _census_table(document.get("explore")),
        "<h3>W-grammar usage</h3>",
        _wgrammar_table(document["wgrammar"]),
    ]
    checks = document.get("checks")
    if checks:
        parts.append("<h3>Check provenance</h3>")
        parts.append(_provenance_section(checks))
    return "".join(parts)


def coverage_html(
    documents: Mapping[str, Any] | list,
    title: str = "Proof coverage report",
) -> str:
    """Render one document (or a list of per-application documents) as
    a single self-contained HTML page."""
    if isinstance(documents, Mapping):
        documents = [documents]
    sections = "".join(
        _document_section(document) for document in documents
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{escape(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        f"<h1>{escape(title)}</h1>"
        f"{sections}</body></html>\n"
    )
