from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from planforge.errors import DuplicateName, EmptyNameSet
from planforge.trie import build_trie, children_after, terminal_at


def test_two_name_example() -> None:
    root = build_trie(["Text Summarization", "Text to Image Generation"])
    assert children_after(root, []) == frozenset({"Text"})
    assert children_after(root, ["Text"]) == frozenset({"Summarization", "to"})
    assert terminal_at(root, ["Text", "Summarization"]) == "Text Summarization"
    assert terminal_at(root, ["Text"]) is None
    assert terminal_at(root, ["Text", "to", "Image", "Generation"]) == "Text to Image Generation"


def test_default_registry_paths(registry) -> None:
    root = build_trie(registry.names())
    assert children_after(root, ["Text"]) == frozenset({"Summarization", "to"})
    assert children_after(root, ["Image"]) == frozenset(
        {"Classification", "Deblurring", "Denoising", "Super", "Captioning"}
    )
    for name in registry.names():
        assert terminal_at(root, name.split()) == name


def test_bad_prefix_raises() -> None:
    root = build_trie(["Fill Mask"])
    with pytest.raises(KeyError):
        children_after(root, ["Fill", "Bucket"])


def test_build_errors() -> None:
    with pytest.raises(EmptyNameSet):
        build_trie([])
    with pytest.raises(DuplicateName):
        build_trie(["Fill Mask", "Fill Mask"])


def _walk_terminals(node, prefix=()):
    if node.terminal is not None:
        yield node.terminal
    for word, child in node.children.items():
        yield from _walk_terminals(child, prefix + (word,))


_WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
_NAME = st.lists(_WORD, min_size=1, max_size=4).map(" ".join)


@given(st.lists(_NAME, min_size=1, max_size=20, unique=True))
def test_every_name_is_a_terminal_path_and_nothing_else(names: list[str]) -> None:
    root = build_trie(names)
    assert sorted(_walk_terminals(root)) == sorted(names)
    for name in names:
        assert terminal_at(root, name.split()) == name
