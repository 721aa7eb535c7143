import pathlib
import sys

import pytest

# let the tests run from a plain checkout, without an editable install
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from positroid_hstar import ehrhart as eh  # noqa: E402
from positroid_hstar import triangulation as tg  # noqa: E402


def forget_words():
    """Empty the per-word memos of `triangulation`.  A test that patches what
    they read (`_z_vertices`, `_descent_prefix`) calls it after patching, so
    that a word cached before the patch is derived again."""
    for memo in (tg._alcove, tg._every_word):
        memo.cache_clear()


@pytest.fixture(autouse=True)
def fresh_word_memos():
    """Each test starts with no word's alcove or reference table kept, and
    no summand's count (`ehrhart._summand_ehrhart`), so a test that patches
    the counting sees every summand counted again."""
    forget_words()
    eh._summand_ehrhart.cache_clear()
