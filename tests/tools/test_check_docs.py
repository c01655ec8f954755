"""tools/check_docs.py: every catalog page in docs/ matches the code,
every cited Markdown file exists, and README's CI facts match the CI
workflow."""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "tools"))

import check_docs  # noqa: E402

CATALOGS = {catalog.doc: catalog for catalog in check_docs.CATALOGS}

#: The tail of every dangling-citation error.
UNRESOLVED = "which matches no file in the repository"


@pytest.fixture
def docs_copy(tmp_path):
    target = tmp_path / "docs"
    shutil.copytree(check_docs.DOCS_DIR, target)
    return target


def remove_first_heading(catalog, docs_dir):
    """Delete the first heading that names something the code defines;
    returns that name."""
    path = docs_dir / catalog.doc
    text = path.read_text(encoding="utf-8")
    defined = set(catalog.defined())
    heading = next(m for m in check_docs.HEADING.finditer(text) if m["name"] in defined)
    end = text.index("\n", heading.start()) + 1
    path.write_text(text[: heading.start()] + text[end:], encoding="utf-8")
    return heading["name"]


def add_unknown_heading(catalog, docs_dir):
    path = docs_dir / catalog.doc
    text = path.read_text(encoding="utf-8")
    path.write_text(text + "\n## `no-such-entry` — stale\n", encoding="utf-8")
    return "no-such-entry"


def test_repository_docs_pass(capsys):
    assert check_docs.main() == 0
    out = capsys.readouterr()
    assert out.err == ""
    # One line per catalog, plus the citation and CI-facts summaries.
    assert len(out.out.splitlines()) == len(CATALOGS) + 2


@pytest.mark.parametrize("doc", sorted(CATALOGS))
def test_removed_heading_fails_and_names_the_entry(docs_copy, doc, capsys):
    catalog = CATALOGS[doc]
    name = remove_first_heading(catalog, docs_copy)
    problems, _ = check_docs.check(catalog, docs_copy)
    error = f"{catalog.missing} missing from docs/{doc}: {name}"
    assert problems == [error]
    assert check_docs.main(docs_copy) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("doc", sorted(CATALOGS))
def test_unknown_heading_fails_and_names_the_entry(docs_copy, doc, capsys):
    catalog = CATALOGS[doc]
    name = add_unknown_heading(catalog, docs_copy)
    problems, _ = check_docs.check(catalog, docs_copy)
    error = f"docs/{doc} documents {catalog.unknown}: {name}"
    assert problems == [error]
    assert check_docs.main(docs_copy) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_allowed_extra_is_not_stale():
    catalog = CATALOGS["POLICIES.md"]
    assert "baseline" not in set(catalog.defined())
    assert check_docs.check(catalog, check_docs.DOCS_DIR)[0] == []


def test_unmentioned_environment_variable_fails(docs_copy):
    path = docs_copy / "DISTRIBUTED.md"
    path.write_text(
        path.read_text(encoding="utf-8").replace("REPRO_LEASE_TTL", "the TTL variable"),
        encoding="utf-8",
    )
    problems, _ = check_docs.check(CATALOGS["DISTRIBUTED.md"], docs_copy)
    assert problems == [
        "environment variables missing from docs/DISTRIBUTED.md: REPRO_LEASE_TTL"
    ]


def test_distributed_entries_follow_the_cli(monkeypatch):
    # The executors are the CLI's --executor choices, and the one
    # environment variable the page must mention is the lease TTL.
    import repro.cli

    catalog = CATALOGS["DISTRIBUTED.md"]
    assert catalog.mentions()["environment variables"] == {"REPRO_LEASE_TTL"}
    monkeypatch.setattr(repro.cli, "EXECUTORS", (*repro.cli.EXECUTORS, "slurm"))
    problems, _ = check_docs.check(catalog, check_docs.DOCS_DIR)
    assert problems == ["entries missing from docs/DISTRIBUTED.md: slurm"]


def test_every_failure_is_reported(docs_copy, capsys):
    removed = remove_first_heading(CATALOGS["SCENARIOS.md"], docs_copy)
    added = add_unknown_heading(CATALOGS["FAILURES.md"], docs_copy)
    (docs_copy / "COMPARISONS.md").unlink()
    assert check_docs.main(docs_copy) == 1
    out = capsys.readouterr()
    assert out.err.splitlines() == [
        f"error: registered scenario(s) missing from docs/SCENARIOS.md: {removed}",
        f"error: {docs_copy / 'COMPARISONS.md'} does not exist",
        f"error: docs/FAILURES.md documents unknown field(s): {added}",
    ]
    # The checks still passing are run and reported too.
    assert [line.split()[0] for line in out.out.splitlines()] == [
        "docs/POLICIES.md",
        "docs/BALANCERS.md",
        "docs/DISTRIBUTED.md",
        "all",
        "README.md's",
    ]


@pytest.fixture
def cited_tree(tmp_path):
    """A small repository: sources and docs citing Markdown files."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "docs").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "tools").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text("See ../README.md.\n", encoding="utf-8")
    (tmp_path / "tools" / "NOTES.md").write_text("notes\n", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "Read [the guide](docs/GUIDE.md) and tools/NOTES.md.\n\n"
        "CI (.github/workflows/ci.yml) tests Python 3.12–3.12, runs a one-way\n"
        "smoke matrix (engine) and checks perfbench's cell-fc digests.\n",
        encoding="utf-8",
    )
    workflow = tmp_path / check_docs.WORKFLOW
    workflow.parent.mkdir(parents=True)
    workflow.write_text(
        "jobs:\n"
        "  tests:\n"
        '    python-version: ["3.12"]\n'
        "  smoke:\n"
        "    smoke: [engine]\n"
        "  perfbench-outputs:\n"
        "    workload: [cell-fc]\n",
        encoding="utf-8",
    )
    (tmp_path / "src" / "pkg" / "mod.py").write_text('"""See GUIDE.md."""\n', encoding="utf-8")
    (tmp_path / "benchmarks" / "b.py").write_text('"""docs/GUIDE.md"""\n', encoding="utf-8")
    return tmp_path


def test_resolving_citations_pass(cited_tree):
    problems, summary = check_docs.check_citations(cited_tree)
    assert problems == []
    where = "src/, benchmarks/, docs/, README.md"
    assert summary == f"all 5 Markdown citations in {where} resolve"


def test_dangling_citation_fails_and_names_the_file(cited_tree, capsys):
    module = cited_tree / "src" / "pkg" / "mod.py"
    module.write_text('"""Module (see GUIDE.md and DESIGN.md §4)."""\n', encoding="utf-8")
    (cited_tree / "docs" / "GUIDE.md").write_text("See docs/GONE.md.\n", encoding="utf-8")
    problems, _ = check_docs.check_citations(cited_tree)
    assert problems == [
        f"src/pkg/mod.py:1 cites DESIGN.md, {UNRESOLVED}",
        f"docs/GUIDE.md:1 cites docs/GONE.md, {UNRESOLVED}",
    ]
    assert check_docs.main(root=cited_tree) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {problem}" for problem in problems]


def test_hidden_directories_neither_cite_nor_resolve(cited_tree):
    hidden = cited_tree / "docs" / ".cache"
    hidden.mkdir()
    (hidden / "DESIGN.md").write_text("cites NOWHERE.md\n", encoding="utf-8")
    (cited_tree / "src" / "pkg" / "mod.py").write_text('"""DESIGN.md"""\n', encoding="utf-8")
    problems, _ = check_docs.check_citations(cited_tree)
    assert problems == [f"src/pkg/mod.py:1 cites DESIGN.md, {UNRESOLVED}"]


@pytest.fixture
def repo_copy(tmp_path):
    """README.md, docs/ and the CI workflow, copied: a tree that passes."""
    shutil.copy(check_docs.REPO_ROOT / "README.md", tmp_path)
    shutil.copytree(check_docs.DOCS_DIR, tmp_path / "docs")
    workflow = tmp_path / check_docs.WORKFLOW
    workflow.parent.mkdir(parents=True)
    shutil.copy(check_docs.REPO_ROOT / check_docs.WORKFLOW, workflow)
    return tmp_path


def edit_first(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def assert_only_ci_error(tree, error, capsys):
    assert check_docs.check_ci_facts(tree)[0] == [error]
    assert check_docs.main(tree / "docs", tree) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_repository_ci_facts_pass(repo_copy):
    problems, summary = check_docs.check_ci_facts(check_docs.REPO_ROOT)
    assert problems == []
    assert summary.startswith("README.md's CI facts match .github/workflows/ci.yml")
    assert check_docs.check_ci_facts(repo_copy) == (problems, summary)


def test_untested_python_version_fails(repo_copy, capsys):
    # The tests job's matrix is the workflow's first python-version list.
    edit_first(repo_copy / check_docs.WORKFLOW, '"3.13"]', '"3.13", "3.14"]')
    error = "README.md states Python 3.10–3.13, but the tests job runs 3.10–3.14"
    assert_only_ci_error(repo_copy, error, capsys)


def test_dropped_smoke_entry_fails(repo_copy, capsys):
    edit_first(repo_copy / check_docs.WORKFLOW, "adaptive, examples]", "adaptive]")
    error = "README.md states 'eight-way smoke matrix', but the smoke job has 7 entries"
    assert_only_ci_error(repo_copy, error, capsys)


def test_unnamed_perfbench_workload_fails(repo_copy, capsys):
    edit_first(repo_copy / "README.md", ", `sweep-local` or `sweep-queue`", " or `sweep-local`")
    error = "perfbench-outputs workloads missing from README.md's CI paragraph: sweep-queue"
    assert_only_ci_error(repo_copy, error, capsys)


def test_missing_workflow_fails(cited_tree):
    (cited_tree / check_docs.WORKFLOW).unlink()
    problems, _ = check_docs.check_ci_facts(cited_tree)
    assert problems == [f"{cited_tree / check_docs.WORKFLOW} does not exist"]
