"""Prefix trie over whitespace-tokenized tool names.

Constrains word-by-word emission so that only registered tool names can
ever be spelled out. A node can be terminal and still have children
(one name may be a prefix of another).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DuplicateName, EmptyNameSet


@dataclass
class TrieNode:
    children: dict[str, "TrieNode"] = field(default_factory=dict)
    terminal: str | None = None


def build_trie(names: Iterable[str]) -> TrieNode:
    root = TrieNode()
    count = 0
    for name in names:
        count += 1
        node = root
        for word in name.split():
            node = node.children.setdefault(word, TrieNode())
        if node.terminal is not None:
            raise DuplicateName(f"name in trie twice: {name}")
        node.terminal = name
    if count == 0:
        raise EmptyNameSet("cannot build a trie from zero names")
    return root


def _walk(root: TrieNode, words: Sequence[str]) -> TrieNode:
    node = root
    for word in words:
        if word not in node.children:
            raise KeyError(f"no name continues {' '.join(words)!r}")
        node = node.children[word]
    return node


def children_after(root: TrieNode, words: Sequence[str]) -> frozenset[str]:
    """Word tokens that can legally follow the given prefix."""
    return frozenset(_walk(root, words).children)


def terminal_at(root: TrieNode, words: Sequence[str]) -> str | None:
    """The complete name spelled by the prefix, if any."""
    return _walk(root, words).terminal
