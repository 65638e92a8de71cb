"""Counters for the work charp does, installed with pytest's monkeypatch.

Each counter wraps one charp function in every charp module that holds it,
so a call counts whichever module makes it:

- ``count_groebner``: Buchberger runs, the S-pairs they reduce, and the
  reductions that give 0 (a ``normal_form`` of 0 inside ``buchberger``, as
  the benchmark's tracer counts them);
- ``count_buchberger``: the runs alone;
- ``count_bracket_roots``: bracket roots, from an empty automaton store;
- ``count_automaton_moves``: calls of the class automaton's ``step`` and
  ``carry``, memo hits included, from an empty automaton store.
"""

import sys

import charp as ch


def patch_in_charp(monkeypatch, name, wrap, module="frobenius"):
    """Replace charp.<module>.<name> in every charp module that holds it
    with ``wrap(original)``."""
    original = getattr(getattr(ch, module), name)
    wrapper = wrap(original)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "charp" or mod_name.startswith("charp.")) \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


def wrap_in_charp(monkeypatch, name, before, module="frobenius"):
    """Replace charp.<module>.<name> in every charp module that holds it with
    a wrapper that calls ``before`` on the arguments first."""
    def wrap(original):
        def wrapper(*args, **kwargs):
            before(*args)
            return original(*args, **kwargs)
        return wrapper

    patch_in_charp(monkeypatch, name, wrap, module)


class GroebnerWork:
    """One entry per Buchberger run, per S-pair reduced and per S-pair
    that reduced to 0."""

    def __init__(self):
        self.runs, self.spairs, self.zero_reductions = [], [], []
        self.depth = 0  # Buchberger runs under way


def count_groebner(monkeypatch) -> GroebnerWork:
    work = GroebnerWork()

    def runs(original):
        def buchberger(*args, **kwargs):
            work.runs.append(1)
            work.depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                work.depth -= 1
        return buchberger

    def zeros(original):
        def normal_form(f, basis):
            r = original(f, basis)
            if work.depth and r.is_zero():
                work.zero_reductions.append(1)
            return r
        return normal_form

    patch_in_charp(monkeypatch, "buchberger", runs, "ideals")
    patch_in_charp(monkeypatch, "normal_form", zeros, "ideals")
    wrap_in_charp(monkeypatch, "_spoly", lambda f, g: work.spairs.append(1),
                  "ideals")
    return work


def count_buchberger(monkeypatch):
    """Count the Buchberger runs made through any charp module."""
    return count_groebner(monkeypatch).runs


def count_bracket_roots(monkeypatch):
    """Count bracket_root calls made through any charp module, from an empty
    automaton store; returns the list of root exponents."""
    from charp import cartier
    monkeypatch.setattr(cartier, "_tau_cache", {})
    calls = []
    wrap_in_charp(monkeypatch, "bracket_root",
                  lambda I, e, *factor: calls.append(e))
    return calls


def count_automaton_moves(monkeypatch):
    """Count the calls of ``_ClassAutomaton.step`` and ``carry``, from an
    empty automaton store; returns a dict of the two counts."""
    from charp import cartier
    monkeypatch.setattr(cartier, "_tau_cache", {})
    calls = {"step": 0, "carry": 0}

    def counted(name):
        real = getattr(cartier._ClassAutomaton, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cartier._ClassAutomaton, name, counted(name))
    return calls
