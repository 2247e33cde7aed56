"""Planted faults for the gate's self-test.

Each fault wraps one public function and corrupts one value of its first
suitable output.  A gate that lets any of them pass cannot fail.

    closed-phase        one closed-form phase numerator       (sweep, cli)
    state-json-byte     one byte of a state descriptor's JSON  (cli)
    frac-fourier-value  one sample of a fractional Fourier transform (grid)
    wave-sample-value   one sample of a kitten wavefunction    (cli)
    loose-tolerance     one check's tolerance, loosened tenfold (grid)

The program's own checks see the first and third; the others only the
benchmark's gates see: the state digest, the psi reference and the pinned
tolerances.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib

from tracer import rebind


def _first_only(fn, corrupt):
    done = []

    @functools.wraps(fn)
    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not done:
            changed = corrupt(out)
            if changed is not None:
                done.append(True)
                return changed
        return out

    return planted


def _closed_phase(coeffs):
    if len(coeffs) < 2:
        return None
    c = coeffs[1]
    wrong = dataclasses.replace(c.phase, num=c.phase.num + 1)
    return coeffs[:1] + [dataclasses.replace(c, phase=wrong)] + coeffs[2:]


def _state_json_byte(text):
    at = text.index('"phase_num": ') + len('"phase_num": ')
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]


def _sample_value(sample):
    values = sample.values.copy()
    values[values.size // 2] += 1e-3
    return dataclasses.replace(sample, values=values)


def _loose_tolerance(results):
    if not results:
        return None
    r = results[0]
    return [dataclasses.replace(r, tolerance=10 * r.tolerance)] + results[1:]


FAULTS = {
    "closed-phase": ("gauss_sums", "closed_coefficients", _closed_phase),
    "state-json-byte": ("superposition", "descriptor_to_json", _state_json_byte),
    "frac-fourier-value": ("wavefunc", "frac_fourier", _sample_value),
    "wave-sample-value": ("wavefunc", "kitten_wave_sample", _sample_value),
    "loose-tolerance": ("verify", "run_checks", _loose_tolerance),
}


def plant(name: str) -> None:
    module, function, corrupt = FAULTS[name]
    original = getattr(importlib.import_module(f"gausscat.{module}"), function)
    rebind(original, _first_only(original, corrupt), [])
