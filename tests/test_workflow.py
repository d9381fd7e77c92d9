"""The CI workflow's list of bit tests, which both emulated-host steps run."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# Test files the emulated hosts do not run, each with its reason.
LEFT_OUT = {
    # Fixtures written on one host, which another host's bits need not match.
    "tests/test_acceptance.py": "host-pinned fixtures",
    "tests/test_blas.py": "host-pinned fixtures",
    # No numerics of their own.
    "tests/test_readme.py": "no numerics",
    "tests/test_layering.py": "no numerics",
    "tests/test_code_lines.py": "no numerics",
    "tests/test_perfbench_contract.py": "no numerics",
    "tests/test_workflow.py": "no numerics",
}


def bit_tests() -> list:
    """The files of the workflow's `BIT_TESTS: >-` block, read as plain text:
    its indented lines up to the first line indented less."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "BIT_TESTS: >-")
    indent = len(lines[start]) - len(lines[start].lstrip())
    files = []
    for line in lines[start + 1:]:
        if len(line) - len(line.lstrip()) <= indent:
            break
        files += line.split()
    return files


def test_every_listed_bit_test_exists_once():
    files = bit_tests()
    assert files
    assert len(files) == len(set(files))
    assert [f for f in files if not (ROOT / f).is_file()] == []


def test_every_test_file_is_listed_or_left_out_with_a_reason():
    # A new or renamed test file must be added to BIT_TESTS or to LEFT_OUT.
    files = set(bit_tests())
    every = {f"tests/{path.name}" for path in (ROOT / "tests").glob("test_*.py")}
    assert not files & set(LEFT_OUT)
    assert sorted(every - files - set(LEFT_OUT)) == []
    assert sorted(set(LEFT_OUT) - every) == []
