"""The output corpus as a byte-identity gate: every command of
`cli_corpus.json`, run in process on inputs rebuilt by `corpus.py`,
exits and prints as recorded, under the masks the file states and no
other (see `corpus.py`)."""

import json

import pytest

import corpus

RECORDED = json.loads(corpus.CORPUS.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    argvs = corpus.write_inputs(directory)
    assert [" ".join(argv) for argv in argvs] == [case["argv"] for case in RECORDED["cases"]]
    return directory


def test_corpus_states_its_masks():
    assert RECORDED["masks"] == corpus.MASKS


@pytest.mark.parametrize("case", RECORDED["cases"], ids=lambda case: case["argv"])
def test_corpus_case(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    argv = case["argv"].split()
    code, out, err = corpus.run(argv)
    assert (code, corpus.masked(err)) == (case["exit"], corpus.masked(case["stderr"]))
    if "tsv" in argv:
        assert corpus.tsv_equal(out, case["stdout"])
    else:
        assert corpus.masked(out) == corpus.masked(case["stdout"])
