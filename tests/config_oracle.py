"""The init-mode checks of ``RunConfig.validate`` as the package once made
them: one entry at a time, each valid entry built and hashed as a
``ModeIndex``.

``init_mode_messages(init_modes, K, J)`` returns the messages of every
bad entry, in entry order; ``RunConfig.validate`` checks the same
entries in one loop that builds no ``ModeIndex`` for a valid entry, and
must return exactly these, between the table size and the grid size
messages.
"""

from __future__ import annotations

import math

from diskvort.specfun import is_integer
from diskvort.spectrum import ModeIndex


def _index(x) -> bool:
    # a mode index may also be a float holding a whole number, like 2.0
    return is_integer(x) or (isinstance(x, float) and x.is_integer())


def init_mode_messages(init_modes, K, J) -> list[str]:
    errs = []
    try:
        entries = () if init_modes is None else tuple(init_modes)
    except TypeError as e:
        return [f"malformed init_modes: {e}"]
    seen = set()
    for entry in entries:  # each on its own, every message naming it
        try:
            (k, j, parity), coeff = entry
        except (TypeError, ValueError):
            errs.append(f"init mode {entry!r} is not ((k, j, parity), coefficient)")
            continue
        name, mode = f"init mode ({k},{j},{parity})", None
        if not (_index(k) and _index(j)):
            errs.append(f"{name} needs integer k and j")
        else:
            try:
                mode = ModeIndex(int(k), int(j), parity)
            except ValueError as e:
                errs.append(f"{name}: {e}")
        try:
            if not math.isfinite(float(coeff)):
                errs.append(f"{name} has coefficient {coeff!r}, not finite")
        except (TypeError, ValueError):
            errs.append(f"{name} has coefficient {coeff!r}, not a number")
        if mode is not None:
            if mode in seen:
                errs.append(f"{name} given twice")
            seen.add(mode)
            if is_integer(K) and is_integer(J) and (k > K or j > J):
                errs.append(f"{name} outside table K={K} J={J}")
    return errs
