"""Replay the CLI transcript corpus through `cli.main`: every exit code, stdout, stderr and written file.

`transcripts/make_corpus.py` wrote the corpus and says how to regenerate it after an intended change.
"""
from __future__ import annotations

import json
from unittest import mock

from revcirc import cli
from transcripts import make_corpus

CORPUS = json.loads(make_corpus.CORPUS.read_text())


def test_every_record_replays_byte_for_byte(tmp_path):
    assert make_corpus.replay(tmp_path, CORPUS) == []


# The usage errors `sim` and `invert` raise from their options alone, before they read the document.
OPTION_ERRORS = ("give exactly one of", "--backward needs", "--max-trials must")


def test_option_refusals_are_made_before_the_document_is_read(tmp_path):
    refusals = [
        want for want in CORPUS
        if want["argv"][:1] in (["sim"], ["invert"]) and any(error in want["stderr"] for error in OPTION_ERRORS)
    ]
    assert len(refusals) == 16 and {want["exit"] for want in refusals} == {1}
    for want in refusals:  # earlier corpus commands write some of these documents; an empty stand-in is never read
        (tmp_path / want["argv"][2]).touch()
    unread = mock.Mock(side_effect=AssertionError("the document was read"))
    with mock.patch.object(cli, "_load", unread):
        differing = make_corpus.replay(tmp_path, refusals)
    assert differing == [] and unread.call_count == 0


def test_the_corpus_covers_every_command_both_ways_and_every_exit_code():
    assert {record["exit"] for record in CORPUS} == {0, 1, 2, 3, 4}
    passed = {(record["argv"][0], "--json" in record["argv"]) for record in CORPUS if record["exit"] == 0}
    assert passed >= {(command, as_json) for command in cli.cli.commands for as_json in (False, True)}
    assert {record["argv"][0] for record in CORPUS if record["argv"][1:] == ["--help"]} == set(cli.cli.commands)
