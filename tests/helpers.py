"""Helpers only the tests need: reading a formal sum back from the text
``formal.sum_to_text`` prints, reading a matrix back from the JSON that
``ovps.matrix_to_json`` prints, and the unit word of letter words."""

import re
from fractions import Fraction

import numpy as np

from ovc.formal import FormalSum, basis_from_text
from ovc.winsert import WWord

W_ONE = WWord(())


def sum_from_text(text: str) -> FormalSum:
    text = text.strip()
    if text == "0":
        return FormalSum()
    if text.startswith("- "):
        text = "-" + text[2:]
    tokens = re.split(r" ([+-]) ", text)
    chunks = [(1, tokens[0])]
    for op, tok in zip(tokens[1::2], tokens[2::2]):
        chunks.append((1 if op == "+" else -1, tok))
    terms = []
    for sgn, chunk in chunks:
        chunk = chunk.strip()
        if chunk.startswith("-"):
            sgn, chunk = -sgn, chunk[1:]
        if "*" in chunk:
            coeff_text, body = chunk.split("*", 1)
            coeff = Fraction(coeff_text)
        else:
            coeff, body = 1, chunk
        terms.append((basis_from_text(body), sgn * coeff))
    return FormalSum(terms)


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])
