"""CLI output stays byte-identical to the digests in golden_cli.json."""

import json

import pytest

from make_golden import CONFIGS, GOLDEN_PATH, run_config

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def test_golden_covers_every_config():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_config(name, str(tmp_path)) == GOLDEN[name]
