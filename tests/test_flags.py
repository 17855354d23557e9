"""The flag table: argv and config files share one parser per flag, and every
flag is documented in the README and in `kaonbraid --help`."""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaonbraid.cli import FLAGS, build_parser, main, resolve
from kaonbraid.errors import KaonbraidError

README = pathlib.Path(__file__).parents[1] / "README.md"
PARSER = build_parser()
SWITCHES = [key for key, flag in FLAGS.items() if isinstance(flag.default, bool)]
VALUED = [key for key in FLAGS if key not in SWITCHES]

# Config lines drop what follows '#' and strip whitespace, so generated text
# is printable ASCII without '#' and without surrounding blanks.
_CHARS = st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#")
TEXT = st.one_of(
    st.sampled_from([
        "nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "1e400", "-1e308", "1e308",
        "0", "-0", "-0.0", "1", "2", "-1", "-2", "0.5", "5e-324", "1_000", "0x10", "",
        "true", "False", "YES", "no", "maybe", "plus", "minus", "csv", "json", "KK",
    ]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.text(_CHARS, max_size=12).map(str.strip),
)


def option(key):
    return "--" + key.replace("_", "-")


def outcome(args):
    """resolve(args) as ('ok', cfg) or ('rejected', None).  Any exception
    other than KaonbraidError propagates and fails the test."""
    try:
        return "ok", resolve(args)
    except KaonbraidError:
        return "rejected", None


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("flags") / "run.cfg"


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(FLAGS)), text=TEXT)
def test_argv_and_config_agree(config_path, key, text):
    config_path.write_text(f"{key} = {text}\n", encoding="utf-8")
    from_config = outcome(PARSER.parse_args(["bell", "--config", str(config_path)]))
    if key in SWITCHES:
        # a switch carries no text on the command line: present means "true"
        from_argv = outcome(PARSER.parse_args(["bell", option(key)]))
        if text.lower() == "true":
            assert from_config == from_argv
    else:
        from_argv = outcome(PARSER.parse_args(["bell", f"{option(key)}={text}"]))
        assert from_config[0] == from_argv[0]
        if from_config[0] == "ok":
            assert repr(from_config[1][key]) == repr(from_argv[1][key])
    for status, cfg in (from_config, from_argv):
        if status == "ok":
            flag, value = FLAGS[key], cfg[key]
            if flag.default is not None:
                assert type(value) is type(flag.default)
            assert flag.check is None or flag.check(value)
    if from_argv[0] == "rejected" and key in VALUED:
        # rejected at the boundary: main reports it and returns 2, no command runs
        assert main(["bell", f"{option(key)}={text}"]) == 2


@pytest.mark.parametrize("key", sorted(FLAGS))
def test_flag_documented(key):
    assert re.search(rf"`{option(key)}\b", README.read_text(encoding="utf-8"))
    assert option(key) in PARSER.format_help()
