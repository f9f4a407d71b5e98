"""Uniform-morphism reduction for alphabets of nine letters and up.

For n >= 27 (and degraded below), a word over the small alphabet A_m with
m = floor((n-3)/6) is mapped by a user-supplied (n-1)(floor(n/2)+1)-uniform
binary morphism f into the domain of the permutation encoding.  The kernel of
the composed action has a counting description: a word lies in it exactly when
every letter count is divisible by 4.  That turns repetition scanning in the
image into scanning for "psi-kernel repetitions" in the preimage: factors v
with a period q whose length-q windows are kernel words and with
(n-1)(|v|+1) >= nq - 3.

Morphism table contents are external data; everything here validates and
consumes them but never fabricates them.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Optional, Union

from ._util import Record
from .core_words import (
    RepetitionReport,
    ReportKind,
    Word,
    WordLike,
    find_forbidden_factor,
    first_kernel_repetition,
    kernel_signatures,
    letters_of,
)
from .pansiot import gamma


class CarpiParams(Record):
    """Derived quantities for order n: source alphabet size m, the block
    parameter ell, and the uniform image length (n-1)(ell+1).
    below_case_range is set for 9 <= n < 27, where the machinery is defined
    but the case analysis is not."""

    __slots__ = ("n", "m", "ell", "image_length", "below_case_range")


def params(n: int) -> CarpiParams:
    if n < 9:
        raise ValueError(f"no source alphabet below n = 9 (got {n})")
    m = (n - 3) // 6
    ell = n // 2
    return CarpiParams(
        n=n,
        m=m,
        ell=ell,
        image_length=(n - 1) * (ell + 1),
        below_case_range=n < 27,
    )


def in_psi_kernel(v: WordLike) -> bool:
    """Kernel membership by counting: every letter count divisible by 4."""
    counts: dict[int, int] = {}
    for a in letters_of(v):
        counts[a] = counts.get(a, 0) + 1
    return all(c % 4 == 0 for c in counts.values())


def min_psi_repetition_length(n: int, q: int) -> int:
    """Smallest |v| >= q satisfying the length inequality for period q."""
    return max(q, -(-(n * q - 3) // (n - 1)) - 1)


def find_psi_kernel_repetition(n: int, w: WordLike) -> Optional[RepetitionReport]:
    """Leftmost-then-shortest factor v with a period q, a length-q kernel
    factor, and (n-1)(|v|+1) >= nq - 3.

    Any length-q window of a q-periodic word is an anagram of its length-q
    prefix, so core_words.first_kernel_repetition over the running letter
    counts (mod 4) finds each repetition at the signature pair that starts it.
    Letters must lie in the source alphabet A_m from order 9 on, and be
    positive below it; any other letter raises ValueError.  Below order 9
    the letters are renamed to their ranks 1, 2, ... among the distinct
    letters, so the signatures stay as small as the alphabet in use.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    letters = letters_of(w)
    if n >= 9:
        m = params(n).m
        bad = [a for a in letters if not 1 <= a <= m]
        where = f"source alphabet of size {m}"
    else:
        bad = [a for a in letters if a < 1]
        where = "the positive integers"
    if bad:
        raise ValueError(f"letter {bad[0]} outside {where}")
    if n < 9:
        rank = {a: r for r, a in enumerate(sorted(set(letters)), 1)}
        letters = [rank[a] for a in letters]
    need = [min_psi_repetition_length(n, q) for q in range(len(letters) + 1)]
    return first_kernel_repetition(
        letters, kernel_signatures(letters), need, ReportKind.PSI_KERNEL
    )


# ---------------------------------------------------------------- tables


class MorphismTable(Record):
    """A uniform binary morphism on A_m, given extensionally: images maps
    each letter to its image over the binary letters {1, 2}."""

    __slots__ = ("n", "m", "image_length", "images")

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("source alphabet must be nonempty")
        if set(self.images) != set(range(1, self.m + 1)):
            raise ValueError("images must cover exactly the letters 1..m")
        for a, img in self.images.items():
            if len(img) != self.image_length:
                raise ValueError(
                    f"image of {a} has length {len(img)}, expected {self.image_length}"
                )
            if any(b not in (1, 2) for b in img):
                raise ValueError(f"image of {a} is not binary")


def make_table(n: int, images01: dict[int, str]) -> MorphismTable:
    """Assemble a table from 0/1 strings; lengths must agree but are otherwise
    unconstrained, which permits small self-test tables."""
    if not images01:
        raise ValueError("no images given")
    imgs = {
        a: tuple(2 if c == "1" else 1 for c in text) for a, text in images01.items()
    }
    for a, text in images01.items():
        if any(c not in "01" for c in text):
            raise ValueError(f"image of {a} is not a 0/1 string")
    length = len(next(iter(imgs.values())))
    return MorphismTable(n=n, m=len(imgs), image_length=length, images=imgs)


def load_morphism_table(source: Union[str, os.PathLike, dict]) -> MorphismTable:
    """Load and strictly validate a morphism table document.

    The document is JSON with integer fields n and m and a map images from
    letter strings "1".."m" to 0/1 strings of length exactly (n-1)(ell+1).
    """
    if isinstance(source, (str, os.PathLike)):
        import json

        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("table document must be a JSON object")
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        images = doc["images"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"table document missing or malformed field: {exc}") from exc
    p = params(n)  # raises below n = 9
    if m != p.m:
        raise ValueError(f"m = {m} inconsistent with n = {n} (expected {p.m})")
    if not isinstance(images, dict) or set(images) != {str(a) for a in range(1, m + 1)}:
        raise ValueError("images must map exactly the letters 1..m")
    parsed: dict[int, tuple[int, ...]] = {}
    for key, text in images.items():
        if not isinstance(text, str) or any(c not in "01" for c in text):
            raise ValueError(f"image of {key} is not a 0/1 string")
        if len(text) != p.image_length:
            raise ValueError(
                f"image of {key} has length {len(text)}, expected {p.image_length}"
            )
        parsed[int(key)] = tuple(2 if c == "1" else 1 for c in text)
    return MorphismTable(n=n, m=m, image_length=p.image_length, images=parsed)


def apply_morphism(t: MorphismTable, w: WordLike) -> Word:
    """Concatenated images of the letters of w, as a binary word."""
    out: list[int] = []
    for a in letters_of(w):
        img = t.images.get(a)
        if img is None:
            raise ValueError(f"letter {a} has no image in the table")
        out.extend(img)
    return Word(tuple(out), 2)


class PipelineError(ValueError):
    """A verification stage of the pipeline failed; carries the report."""

    def __init__(self, stage: str, report: RepetitionReport):
        self.stage = stage
        self.report = report
        super().__init__(f"{stage}: {report}")


def threshold_pipeline(t: MorphismTable, w: WordLike, verify: bool = False) -> Word:
    """Encode w through the morphism and the permutation decoding.

    With verify set, demands that w has no psi-kernel repetition, then checks
    the output against the exponent bound n/(n-1) (strict).
    """
    n = t.n
    if verify:
        rep = find_psi_kernel_repetition(n, w)
        if rep is not None:
            raise PipelineError("input", rep)
    image = apply_morphism(t, w)
    out = gamma(n, image)
    if verify:
        rep = find_forbidden_factor(out, Fraction(n, n - 1), strict=True)
        if rep is not None:
            raise PipelineError("output", rep)
    return out
