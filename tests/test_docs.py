"""The documentation layer: existence, link integrity, freshness.

Docs rot in three ways — pages vanish, links dangle, generated
references drift from the code.  Each gets a gate here; the CI docs job
runs this file plus ``python -m repro.docsgen --check``.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
DOCS = REPO / "docs"

REQUIRED_PAGES = [
    "index.md", "architecture.md", "paper-map.md", "platforms.md",
    "runs.md", "scenarios.md",
    "dse-distributed.md", "serve.md", "observability.md", "cli.md",
]

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```.*?^```", re.S | re.M)
_FENCE_BODY_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
_CODE_RE = re.compile(r"`([^`\n]+)`")
_NAME_RE = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
_PATH_RE = re.compile(
    r"(?<![\w./-])(?:src|tests|examples|benchmarks|perfbench|docs)/"
    r"[^\s`'\",;)]*"
)


def markdown_files():
    return [REPO / "README.md", REPO / "PAPERS.md"] + sorted(
        DOCS.glob("*.md")
    )


def json_examples():
    """Every fenced block of README.md and docs/*.md that parses as a
    JSON object, as a ``pytest.param`` with a ``page-N`` id (the page's
    N-th such block)."""
    examples = []
    for md_file in [REPO / "README.md"] + sorted(DOCS.glob("*.md")):
        blocks = []
        for block in _FENCE_BODY_RE.finditer(md_file.read_text()):
            try:
                data = json.loads(block.group(1))
            except ValueError:
                continue  # code, or an annotated schema sketch
            if isinstance(data, dict):
                blocks.append(data)
        examples += [
            pytest.param(data, id=f"{md_file.name}-{n}")
            for n, data in enumerate(blocks, 1)
        ]
    return examples


def resolves(dotted):
    """Whether a dotted ``repro.`` name imports as a module, or as an
    attribute chain on the longest prefix that imports."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


class TestPagesExist:
    @pytest.mark.parametrize("page", REQUIRED_PAGES)
    def test_required_page(self, page):
        path = DOCS / page
        assert path.exists(), f"docs/{page} is missing"
        assert path.read_text().strip(), f"docs/{page} is empty"

    def test_readme_links_the_docs(self):
        readme = (REPO / "README.md").read_text()
        for page in ("architecture.md", "paper-map.md", "runs.md", "cli.md"):
            assert f"docs/{page}" in readme, (
                f"README does not link docs/{page}"
            )


class TestLinksResolve:
    @pytest.mark.parametrize(
        "md_file", markdown_files(), ids=lambda p: p.name
    )
    def test_relative_links(self, md_file):
        text = md_file.read_text()
        broken = []
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (md_file.parent / path_part).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{md_file.name}: broken links {broken}"

    @pytest.mark.parametrize(
        "md_file", markdown_files(), ids=lambda p: p.name
    )
    def test_named_code_exists(self, md_file):
        """Every backticked ``repro.`` name resolves and every backticked
        repo path exists, so a doc cannot go on naming deleted code."""
        missing = []
        text = _FENCE_RE.sub("", md_file.read_text())  # inline code only
        for span in _CODE_RE.findall(text):
            missing += [n for n in _NAME_RE.findall(span) if not resolves(n)]
            missing += [
                path for path in _PATH_RE.findall(span)
                if not (REPO / path.split("::", 1)[0]).exists()
            ]
        assert not missing, f"{md_file.name} names missing code: {missing}"

    def test_anchor_links_into_papers(self):
        """docs cite PAPERS.md entries via explicit anchors."""
        papers = (REPO / "PAPERS.md").read_text()
        anchors = set(re.findall(r'<a id="([^"]+)"></a>', papers))
        for md_file in markdown_files():
            for target in _LINK_RE.findall(md_file.read_text()):
                if "PAPERS.md#" in target:
                    anchor = target.rsplit("#", 1)[1]
                    assert anchor in anchors, (
                        f"{md_file.name} cites PAPERS.md#{anchor}, "
                        f"which does not exist"
                    )


class TestJsonExamples:
    """A JSON example in the docs is a record a reader may save and
    load, so each must load as the record it shows."""

    @pytest.mark.parametrize("data", json_examples())
    def test_example_loads_as_the_record_it_shows(self, data):
        from repro.api import ExperimentSpec
        from repro.dse import SweepSpec
        from repro.platforms import PlatformSpec
        from repro.scenarios import ScenarioSpec

        if "base" in data and "axes" in data:
            SweepSpec.from_dict(data)
        elif "kind" in data:
            PlatformSpec.from_dict(data)
        elif "backend" in data:
            ExperimentSpec.from_dict(data)
        else:
            assert "env_id" in data, f"a JSON example of no record: {data}"
            ScenarioSpec.from_dict(data)

    def test_examples_are_collected(self):
        pages = {param.id.rsplit("-", 1)[0] for param in json_examples()}
        assert {"platforms.md", "scenarios.md"} <= pages


class TestPaperMap:
    def test_every_named_bench_exists(self):
        text = (DOCS / "paper-map.md").read_text()
        benches = set(re.findall(r"benchmarks/(bench_\w+\.py)", text))
        assert benches, "paper-map.md names no benchmarks"
        missing = [b for b in benches if not (REPO / "benchmarks" / b).exists()]
        assert not missing, f"paper-map.md names missing benches: {missing}"

    def test_every_bench_is_mapped(self):
        """New benchmarks must be added to the paper map."""
        text = (DOCS / "paper-map.md").read_text()
        unmapped = [
            bench.name
            for bench in (REPO / "benchmarks").glob("bench_*.py")
            if bench.name not in text
        ]
        assert not unmapped, (
            f"benches missing from docs/paper-map.md: {unmapped}"
        )


class TestPapersEntries:
    def test_vetted_related_work_present(self):
        papers = (REPO / "PAPERS.md").read_text()
        assert "Stanley" in papers and "Miikkulainen" in papers
        assert "Evolving Neural Networks through" in papers
        assert "Such" in papers and "1712.06567" in papers

    def test_docs_cite_the_vetted_entries(self):
        cited = "".join(p.read_text() for p in DOCS.glob("*.md"))
        assert "PAPERS.md#stanley2002neat" in cited
        assert "PAPERS.md#such2017deepneuro" in cited


class TestCliReferenceFresh:
    def test_generated_page_matches_parser(self):
        from repro.docsgen import cli_reference_markdown

        committed = (DOCS / "cli.md").read_text()
        assert committed == cli_reference_markdown(), (
            "docs/cli.md is stale — regenerate with "
            "'PYTHONPATH=src python -m repro.docsgen'"
        )

    def test_check_mode(self, capsys):
        from repro.docsgen import main

        assert main(["--check", str(DOCS / "cli.md")]) == 0

    def test_check_mode_detects_stale(self, tmp_path):
        from repro.docsgen import main

        stale = tmp_path / "cli.md"
        stale.write_text("# stale\n")
        assert main(["--check", str(stale)]) == 1

    def test_generator_writes_requested_path(self, tmp_path):
        from repro.docsgen import cli_reference_markdown, main

        out = tmp_path / "cli.md"
        assert main([str(out)]) == 0
        assert out.read_text() == cli_reference_markdown()

    def test_reference_covers_every_subcommand(self):
        from repro.cli import build_parser

        text = (DOCS / "cli.md").read_text()
        parser = build_parser()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                for name in action.choices:
                    assert f"## `repro {name}`" in text, (
                        f"docs/cli.md lacks a section for 'repro {name}'"
                    )
