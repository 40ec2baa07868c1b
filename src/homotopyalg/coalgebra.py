"""Cofree coalgebras at finite weight and their coderivations.

Two coalgebras are supported on words over a suspended `GradedSpace`, and a
`Coderivation`'s `symmetric` flag says which one it acts on:

* tensor: plain tuples, deconcatenation coproduct; a component
  f_k is applied to every length-k window with the Koszul prefix sign
  (-1)^(|f| * (deg of factors left of the window)).
* symmetric: canonically sorted words (the coinvariant model of the
  symmetric coalgebra on the suspension), shuffle coproduct with one term per
  shuffle, and the coderivation extension with one term per unshuffle; the
  component's output is wedged at the front, then the word is re-canonicalized.

A coderivation is determined by its corestriction (the weight-1 part of its
output), and `Coderivation` stores just those components; the graded
commutator of two coderivations is again one, and `bracket` produces it.
A homotopy algebra (`HomotopyAlgebra`, shared by the A-infinity and
L-infinity structures) is one odd coderivation, built in one pass from its
operations on the unsuspended space by the decalage sign.
Every identity the package proves (higher associativity, homotopy Jacobi,
the derivation property) is the vanishing of such a commutator through the
top arity it can reach, and `certify` is the one routine that decides it.

`bracket` never evaluates a coderivation on basis words.  The corestriction
of D_f . D_g is a sum of partial compositions of their components, one
term for each entry g(u) = sum a_y y of the inner one and each outer entry v
that has y as an input letter (Gerstenhaber's pre-Lie composition on the
tensor coalgebra, the Nijenhuis-Richardson composition on the symmetric one):

* tensor: v = p.y.s contributes (-1)^(|g| deg p) a_y f(v) on the word p.u.s;
* symmetric: with back = v minus one copy of y, it contributes

      prod_x C(mult_w(x), mult_u(x)) . eps(u.back -> w) . eps(y.back -> v)
          . a_y f(v)

  on the canonical word w of u.back, where eps is the Koszul sign of a
  rearrangement (nothing when w repeats an odd letter).
  The binomial counts the unshuffles of w whose front is u: equal even
  letters can be picked in that many ways, all with the same sign.

An arity-0 inner entry (u = ()) inserts its output; an arity-0 outer entry
has no input letter and never composes.  So the commutator is found from
the nonzero entries alone, and checking it through the top arity is still
a complete proof.

Every term is bilinear in one value of each coderivation, so `bracket` sums
the compositions on integers: it scales each by D_i, the lcm of its value
denominators, and divides every result value once by D_1 D_2.  An integral
coderivation has D_i = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf, lcm, prod

from .graded import (
    add_into,
    canonical_sym,
    exact,
    is_integer,
    require_bound,
    unshuffle_splits,
)

__all__ = [
    "Coderivation",
    "HomotopyAlgebra",
    "StructureReport",
    "bracket",
    "certify",
]


class Coderivation:
    """Coderivation of the weight-graded cofree coalgebra on `space`: on the
    symmetric coalgebra when `symmetric`, on the tensor coalgebra otherwise.

    It is stored as its corestriction, multilinear components
    {arity: {input word: {basis index: value}}}, each value exact: an int
    when integral, else a Fraction, and `eval_word` extends it to words.
    `degree` is the operator's (suspended) degree, enforced on set_value:
    every output index must sit in degree (input degree) + degree.  The sign
    rules (and the fact that a commutator of coderivations is again one) are
    only sound for homogeneous operators.  Symmetric components are stored
    on canonically sorted inputs only and extend to arbitrary inputs by the
    Koszul sign of sorting.  Coderivations compare by value.
    """

    def __init__(self, space, degree, comps=None, symmetric=False):
        self.space = space
        self.degree = degree
        self.comps = {} if comps is None else comps
        self.symmetric = symmetric

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.degree, self.comps, self.symmetric) == \
            (other.space, other.degree, other.comps, other.symmetric)

    def arities(self):
        return sorted(k for k, table in self.comps.items() if table)

    def set_value(self, word, value):
        """Store the component on `word`, its value made exact and cleared
        of zeros, and return what was stored ({} removes the entry)."""
        word = tuple(word)
        if self.symmetric:
            sign, cw = canonical_sym(word, self.space)
            if sign == 0:
                raise ValueError(f"input {word} has a repeated odd factor, value is forced zero")
            if sign != 1 or cw != word:
                raise ValueError(f"symmetric coderivation values must be given on sorted inputs, got {word}")
        in_deg = sum(self.space.degrees[i] for i in word)
        clean = {}
        for i, v in value.items():
            v = exact(v)
            if not v:
                continue
            if self.space.degrees[i] != in_deg + self.degree:
                raise ValueError(
                    f"inhomogeneous value: component at {word} (degree {in_deg}) hits "
                    f"basis index {i} of degree {self.space.degrees[i]}, but the "
                    f"operator has degree {self.degree}")
            clean[i] = v
        if clean:
            self.comps.setdefault(len(word), {})[word] = clean
        else:
            self.comps.get(len(word), {}).pop(word, None)
        return clean

    def apply(self, word):
        """Value on a word, {basis index: value}; {} when absent/zero."""
        table = self.comps.get(len(word))
        if not table:
            return {}
        word = tuple(word)
        if not self.symmetric:
            return table.get(word, {})
        sign, cw = canonical_sym(word, self.space)
        if sign == 0:
            return {}
        val = table.get(cw)
        if not val:
            return {}
        if sign == 1:
            return val
        return {i: -v for i, v in val.items()}

    def max_arity(self):
        ars = self.arities()
        return ars[-1] if ars else 0

    def eval_word(self, word):
        if self.symmetric:
            return self._eval_sym(word)
        return self._eval_tensor(word)

    def _eval_tensor(self, word):
        degs = self.space.degrees
        odd = self.degree % 2
        out = {}
        n = len(word)
        prefix = 0
        for j in range(n + 1):
            sign = -1 if (odd and prefix % 2) else 1
            # an arity-0 component inserts its output at every position j
            for k in self.arities():
                if j + k > n:
                    continue
                val = self.apply(word[j:j + k])
                if not val:
                    continue
                head, tail = word[:j], word[j + k:]
                for idx, coeff in val.items():
                    add_into(out, head + (idx,) + tail, sign * coeff)
            if j < n:
                prefix += degs[word[j]]
        return out

    def _eval_sym(self, word):
        space = self.space
        degs = [space.degrees[i] for i in word]
        out = {}
        for k in self.arities():
            if k > len(word):
                continue
            for sign, front, back in unshuffle_splits(word, degs, k):
                val = self.apply(front)
                if not val:
                    continue
                for idx, coeff in val.items():
                    s2, cw = canonical_sym((idx,) + back, space)
                    if s2:
                        add_into(out, cw, sign * s2 * coeff)
        return out


class HomotopyAlgebra:
    """Finite-dimensional homotopy algebra over Q: the operations `ops`,
    {arity: {index word: {index: int | Fraction}}} with nonzero values
    only, on the unsuspended `space`, and `coderivation`, the odd
    coderivation they induce on `suspended`.  It acts on the symmetric
    coalgebra when the class sets `symmetric`.

    Arity k must raise unsuspended degree by k - 2, so that every
    component has degree -1; an entry on the word a_1 ... a_k enters it
    with the decalage sign (-1)^(sum_t (k - t) |a_t|), unsuspended degrees
    in the exponent.  A symmetric structure takes its entries on sorted
    words only.  ValueError refuses an arity that is not an integer >= 1,
    an entry whose length is not its arity, and what
    `Coderivation.set_value` refuses.
    """

    symmetric = False

    def __init__(self, space, ops, name=""):
        self.space = space
        self.name = name
        self.suspended = space.suspend()
        m = self.coderivation = Coderivation(self.suspended, -1,
                                             symmetric=self.symmetric)
        degs = space.degrees
        self.ops = {}
        for k, table in ops.items():
            if not is_integer(k) or k < 1:
                raise ValueError("operations must have arity >= 1")
            entries = {}
            for word, val in table.items():
                word = tuple(word)
                if len(word) != k:
                    raise ValueError(f"arity {k} entry has {len(word)} inputs")
                sign = -1 if sum((k - t) * degs[i] for t, i in
                                 enumerate(word, start=1)) % 2 else 1
                # every entry, zero ones included, so that an unsorted word
                # of a symmetric structure is refused whatever its value
                value = m.set_value(word, {i: sign * c for i, c in val.items()})
                if value:
                    entries[word] = {i: sign * c for i, c in value.items()}
            if entries:
                self.ops[k] = entries

    def op_value(self, k, word):
        """The arity-k operation on a word of basis indices (a sorted word
        for a symmetric structure), {index: int | Fraction}."""
        return self.ops.get(k, {}).get(tuple(word), {})


def _compose(outer, inner, max_arity, out, scale):
    """Add `scale` times the corestriction of outer . inner, through
    `max_arity` or whole, to out = {arity: {word: {index: coeff}}}.

    The corestriction is a sum of partial compositions: for every inner
    entry u -> a.y and every outer entry v with an input letter y, the
    inner output is substituted for that y (see the module docstring).
    Only the entries are visited, never the basis words.
    """
    space = outer.space
    degs = space.degrees
    sym = outer.symmetric
    odd = inner.degree % 2
    # outer entries by input letter y, with the word around y and the sign
    # of taking y out: one record per position (tensor) or per distinct
    # letter (symmetric; the back word is then v minus one copy of y)
    by_letter = {}
    for k, table in outer.comps.items():
        if not k:
            continue
        for v, b in table.items():
            prefix = 0
            for i, y in enumerate(v):
                if sym:
                    if not (i and v[i - 1] == y):
                        sign = -1 if degs[y] % 2 and prefix % 2 else 1
                        by_letter.setdefault(y, []).append(
                            (v[:i] + v[i + 1:], sign, b))
                else:
                    sign = -1 if odd and prefix % 2 else 1
                    by_letter.setdefault(y, []).append((v[:i], v[i + 1:], sign, b))
                prefix += degs[y]
    for table in inner.comps.values():
        for u, a in table.items():
            room = inf if max_arity is None else max_arity - len(u)
            counts = [(x, u.count(x)) for x in set(u)] if sym else ()
            for y, ay in a.items():
                for entry in by_letter.get(y, ()):
                    if sym:
                        back, sign, b = entry
                        if len(back) > room:
                            continue
                        s, w = canonical_sym(u + back, space)
                        if not s:
                            continue
                        mult = prod(comb(m + back.count(x), m) for x, m in counts)
                        coeff = scale * mult * s * sign * ay
                    else:
                        head, tail, sign, b = entry
                        if len(head) + len(tail) > room:
                            continue
                        w = head + u + tail
                        coeff = scale * sign * ay
                    val = out.setdefault(len(w), {}).setdefault(w, {})
                    for z, bz in b.items():
                        add_into(val, z, coeff * bz)


def _integral(d):
    """(D, the coderivation d with every value scaled by D to an int), where
    D is the lcm of the value denominators of its components."""
    D = lcm(*(v.denominator for table in d.comps.values()
              for val in table.values() for v in val.values()))
    comps = {k: {w: {i: v.numerator * (D // v.denominator)
                     for i, v in val.items()}
                 for w, val in table.items()}
             for k, table in d.comps.items()}
    return D, Coderivation(d.space, d.degree, comps, d.symmetric)


def bracket(d1, d2, max_arity=None):
    """The graded commutator [d1, d2], a coderivation, through `max_arity`
    when given, else whole (it reaches no further than K + K' - 1).

    Both coderivations must act on one coalgebra over one space; the result
    extends to the operator d1 . d2 - (-1)^(|d1||d2|) d2 . d1 there.  Its
    components are built from partial compositions of the two,
    summed on integers (see the module docstring) and divided once.  When
    d1 is d2 the two compositions agree, so [d, d] = (1 - (-1)^(|d||d|))
    d . d is composed once, and not at all for an even d.  A `max_arity`
    other than None or a bound is refused with ValueError.
    """
    if max_arity is not None:
        require_bound("max_arity", max_arity)
    if d1.symmetric != d2.symmetric:
        raise ValueError("bracket cannot mix tensor and symmetric coderivations")
    sign = -1 if (d1.degree % 2) and (d2.degree % 2) else 1
    D1, i1 = _integral(d1)
    out = {}
    if d1 is d2:
        scale = D1 * D1
        if 1 - sign:
            _compose(i1, i1, max_arity, out, 1 - sign)
    else:
        D2, i2 = _integral(d2)
        scale = D1 * D2
        _compose(i1, i2, max_arity, out, 1)
        _compose(i2, i1, max_arity, out, -sign)
    result = Coderivation(d1.space, d1.degree + d2.degree,
                          symmetric=d1.symmetric)
    for n in sorted(out):
        comp = {w: {z: Fraction(c, scale) for z, c in out[n][w].items()}
                for w in sorted(out[n]) if out[n][w]}
        if comp:
            result.comps[n] = comp
    return result


class StructureReport:
    def __init__(self, complete, witness=None):
        self.complete = complete  # True when the check proves all identities
        self.witness = witness    # (arity, word, defect element) or None

    @property
    def ok(self):
        return self.witness is None

    def __bool__(self):
        return self.ok

    def require(self, refusal):
        """Unless ok, raise ValueError naming `refusal` and the witness."""
        if not self.ok:
            raise ValueError(f"{refusal}: witness {self.witness}")


def certify(d1, d2, max_arity=None):
    """Certify that the graded commutator [d1, d2] vanishes.

    The commutator has components only through its reach, max(K1 + K2 - 1,
    0) for top arities K1 and K2, so checking through it is a complete
    proof; `max_arity` lowers the cap to min(max_arity, reach) and yields a
    partial certificate; a `max_arity` other than None or a bound is
    refused with ValueError.  On failure the witness is the first nonzero
    component in (arity, sorted word) order.
    """
    if max_arity is not None:
        require_bound("max_arity", max_arity)
    full = max(d1.max_arity() + d2.max_arity() - 1, 0)
    cap = full if max_arity is None else min(max_arity, full)
    comm = bracket(d1, d2, cap)
    witness = None
    if comm.comps:
        n = min(comm.comps)
        word = min(comm.comps[n])
        witness = n, word, dict(comm.comps[n][word])
    return StructureReport(cap >= full, witness)
