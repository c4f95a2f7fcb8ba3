"""Hot-block JIT: lower hot static blocks to generated Python functions.

The predecode cache (:mod:`repro.sim.isa.predecode`) already collapses
per-instruction class dispatch into flat step tuples, but replaying a
block still pays one interpreter dispatch per step: a tuple index, a tag
compare chain, and generic operand unpacking.  For blocks the protocol
replays hundreds of times (loop bodies, request parsing, runtime glue)
that dispatch is the remaining interpreter tax.

This module is the third execution tier.  Every assembled node carries a
hotness counter on the predecode cache; once a static block (or a
call-free loop subtree) has executed ``REPRO_JIT_THRESHOLD`` times it is
*promoted*: a code generator walks its decoded steps and emits a
specialized Python function —

* straight-line statements with the step operands inlined as literals
  (PCs, cache-line ids, addresses, cycle increments),
* short memory/branch runs fully unrolled, longer ones looped over a
  constant tuple bound as a default argument,
* cache/TLB entry points (``ifetch``/``data_access``/``warm_touch``)
  received as positional locals, never global lookups,

compiled once via ``compile()``/``exec`` and cached on the
``AssembledProgram`` alongside the predecoded forms.  Three consumers
mirror the predecode tier: :func:`atomic_run`, :func:`warm_run`, and
:func:`o3_stream` (the latter additionally flattens rng-free blocks and
loop bodies into constant run tuples delivered via ``yield from``).

Replay is **bit-identical** to both lower tiers: the same rng draws in
the same order, the same cycle number and PC at every memory access, the
same statistics and trace event logs.  Blocks whose generated body would
exceed ``REPRO_JIT_MAX_STMTS`` statements stay on the tier-2 interpreter
(compiling a straight-line six-figure-step boot block costs seconds and
wins nothing — the memory model dominates); subtrees containing calls
are never promoted.  Set ``REPRO_JIT=0`` (or call :func:`set_enabled`)
to pin tier 2; ``REPRO_PREDECODE=0`` disables both fast tiers.
"""

from __future__ import annotations

import os
import time
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.envknobs import env_int
from repro.sim.isa import predecode
from repro.sim.isa.base import (
    AssembledBlock,
    AssembledCall,
    AssembledLoop,
    InstrClass,
)

_MAX_CALL_DEPTH = predecode._MAX_CALL_DEPTH
_NUM_CLASSES = len(InstrClass.NAMES)

_ENABLED = os.environ.get("REPRO_JIT", "1").lower() not in (
    "0", "false", "off", "no",
)

#: Executions of a node before it is promoted to compiled form.
#: Malformed values fall back to the default with a warning — this runs
#: at import time, where an unhandled ValueError would be fatal.
_THRESHOLD = max(1, env_int("REPRO_JIT_THRESHOLD", 2))

#: Upper bound on generated statements per compiled unit.  Mega blocks
#: (straight-line boot code) stay interpreted: their compile time scales
#: with size while their replay time is dominated by memory-model calls.
_MAX_STMTS = max(16, env_int("REPRO_JIT_MAX_STMTS", 3072))

#: Runs at or below this length are fully unrolled into literals.
_UNROLL = 4

#: Process-wide tier-3 counters (see ``python -m repro cache stats``).
STATS: Dict[str, float] = {}


def reset_stats() -> None:
    """Zero the tier-3 counters."""
    STATS.update(
        compiled_units=0, compile_s=0.0, declined=0,
        compiled_calls=0, interpreted_calls=0,
    )


reset_stats()


def enabled() -> bool:
    """Whether hot blocks are promoted to compiled form (default: yes)."""
    return _ENABLED


def set_enabled(value: bool) -> bool:
    """Toggle the JIT tier; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


def threshold() -> int:
    """Executions before promotion (``REPRO_JIT_THRESHOLD``)."""
    return _THRESHOLD


class _Gen:
    """One compilation unit: source lines plus bound constants."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.consts: Dict[str, object] = {}
        self.budget = _MAX_STMTS
        self._serial = 0

    def emit(self, indent: int, text: str) -> bool:
        self.budget -= 1
        if self.budget < 0:
            return False
        self.lines.append("    " * indent + text)
        return True

    def bind(self, value) -> str:
        name = "_c%d" % self._serial
        self._serial += 1
        self.consts[name] = value
        return name

    def build(self, signature: str, result: str, label: str):
        params = "".join(", %s=%s" % (n, n) for n in self.consts)
        src = ["def _jit(%s%s):" % (signature, params)]
        src.extend(self.lines)
        src.append("    return %s" % result)
        namespace = dict(self.consts)
        exec(compile("\n".join(src), "<blockjit:%s>" % label, "exec"),
             namespace)
        return namespace["_jit"]


# ---------------------------------------------------------------------------
# Atomic tier
# ---------------------------------------------------------------------------


def _gen_atomic_steps(gen: _Gen, steps, indent: int) -> bool:
    emit = gen.emit
    for step in steps:
        tag = step[0]
        if tag == 1:
            ok = emit(indent, "cycles += %d" % step[1])
        elif tag == 0:
            ok = (emit(indent, "if current_line != %d:" % step[2])
                  and emit(indent + 1, "cycles += ifetch(%d, cycles)"
                           % step[1])
                  and emit(indent + 1, "current_line = %d" % step[2]))
        elif tag == 4:
            write, pc, addrs = step[1], step[2], step[3]
            if len(addrs) <= _UNROLL:
                ok = True
                for addr in addrs:
                    ok = (ok and emit(indent, "cycles += 1")
                          and emit(indent,
                                   "cycles += data_access(%d, %r, cycles, %d)"
                                   % (addr, write, pc)))
            else:
                name = gen.bind(addrs)
                ok = (emit(indent, "for _addr in %s:" % name)
                      and emit(indent + 1, "cycles += 1")
                      and emit(indent + 1,
                               "cycles += data_access(_addr, %r, cycles, %d)"
                               % (write, pc)))
        elif tag == 5:
            write, pc, region, pattern, n = step[1:]
            offsets = gen.bind(pattern.offsets)
            reg = gen.bind(region)
            ok = (emit(indent, "for _off in %s(%s, %d, rng):"
                       % (offsets, reg, n))
                  and emit(indent + 1, "cycles += 1")
                  and emit(indent + 1,
                           "cycles += data_access(%d + _off, %r, cycles, %d)"
                           % (region.base, write, pc)))
        elif tag == 2:
            n = step[1]
            if n <= _UNROLL:
                ok = True
                for _ in range(n):
                    ok = ok and emit(indent, "rng_random()")
            else:
                ok = (emit(indent, "for _i in range(%d):" % n)
                      and emit(indent + 1, "rng_random()"))
            ok = ok and emit(indent, "cycles += %d" % n)
        elif tag == 3:
            ok = emit(indent, "cycles += %d" % (21 * step[1]))
        else:  # tag == 6: paired (pc, addr) memory run (lazy-unroll form)
            write, pairs = step[1], step[2]
            if len(pairs) <= _UNROLL:
                ok = True
                for pc, addr in pairs:
                    ok = (ok and emit(indent, "cycles += 1")
                          and emit(indent,
                                   "cycles += data_access(%d, %r, cycles, %d)"
                                   % (addr, write, pc)))
            else:
                name = gen.bind(pairs)
                ok = (emit(indent, "for _pc, _addr in %s:" % name)
                      and emit(indent + 1, "cycles += 1")
                      and emit(indent + 1,
                               "cycles += data_access(_addr, %r, cycles, _pc)"
                               % (write,)))
        if not ok:
            return False
    return True


def _gen_atomic_node(gen: _Gen, node, line_shift: int, decode_cache,
                     counts: List[int], indent: int, depth: int) -> bool:
    kind = type(node)
    if kind is AssembledBlock:
        decoded = decode_cache.get(id(node))
        if decoded is None:
            decoded = decode_cache[id(node)] = predecode._decode_atomic_block(
                node, line_shift)
        steps, pairs = decoded
        for icls, count in pairs:
            counts[icls] += count
        return _gen_atomic_steps(gen, steps, indent)
    if kind is AssembledLoop:
        trips = node.trips
        body_counts = [0] * _NUM_CLASSES
        if not gen.emit(indent, "for _t%d in range(%d):" % (depth, trips)):
            return False
        for child in node.body:
            if not _gen_atomic_node(gen, child, line_shift, decode_cache,
                                    body_counts, indent + 1, depth + 1):
                return False
        backedge = node.backedge
        bline = backedge.pc >> line_shift
        ok = (gen.emit(indent + 1, "if current_line != %d:" % bline)
              and gen.emit(indent + 2, "cycles += ifetch(%d, cycles)"
                           % backedge.pc)
              and gen.emit(indent + 2, "current_line = %d" % bline)
              and gen.emit(indent + 1, "cycles += 1"))
        if not ok:
            return False
        for icls, count in enumerate(body_counts):
            if count:
                counts[icls] += count * trips
        counts[backedge.icls] += trips
        return True
    return False  # calls (and unknown nodes) are never compiled


def _compile_atomic(node, line_shift: int, decode_cache):
    start = time.perf_counter()
    gen = _Gen()
    counts = [0] * _NUM_CLASSES
    if not _gen_atomic_node(gen, node, line_shift, decode_cache, counts,
                            1, 0):
        STATS["declined"] += 1
        return False
    fn = gen.build("cycles, current_line, ifetch, data_access, rng, "
                   "rng_random", "cycles, current_line", "atomic")
    STATS["compiled_units"] += 1
    STATS["compile_s"] += time.perf_counter() - start
    return fn, tuple((icls, c) for icls, c in enumerate(counts) if c)


def atomic_run(assembled, seed: int, mem) -> Tuple[int, List[int]]:
    """Tier-3 timed replay; bit-identical to ``predecode.atomic_run``."""
    import random

    rng = random.Random("%d|%d|trace" % (assembled.program.seed, seed))
    rng_random = rng.random
    line_shift = mem._line_shift
    ifetch = mem.ifetch
    data_access = mem.data_access
    data_run = mem.data_run
    decode_cache = predecode._cache_for(assembled, ("atomic", line_shift))
    jit_cache = predecode._cache_for(assembled, ("jit-atomic", line_shift))
    routines = assembled.routines
    class_counts = [0] * _NUM_CLASSES
    stats = STATS
    promote_at = _THRESHOLD

    def run_body(body, cycles, current_line, depth):
        for node in body:
            entry = jit_cache.get(id(node))
            if entry is None:
                entry = jit_cache[id(node)] = [0, None]
            state = entry[1]
            if state is None:
                entry[0] += 1
                if entry[0] >= promote_at:
                    state = entry[1] = _compile_atomic(
                        node, line_shift, decode_cache)
            if state:
                fn, pairs = state
                cycles, current_line = fn(cycles, current_line, ifetch,
                                          data_access, rng, rng_random)
                for icls, count in pairs:
                    class_counts[icls] += count
                stats["compiled_calls"] += 1
                continue
            stats["interpreted_calls"] += 1
            kind = type(node)
            if kind is AssembledBlock:
                predecode.STATS["block_replays"] += 1
                decoded = decode_cache.get(id(node))
                if decoded is None:
                    predecode.STATS["decoded_blocks"] += 1
                    decoded = decode_cache[id(node)] = (
                        predecode._decode_atomic_block(node, line_shift))
                steps, pairs = decoded
                for step in steps:
                    tag = step[0]
                    if tag == 1:
                        cycles += step[1]
                    elif tag == 4:
                        cycles = data_run(zip(repeat(step[2]), step[3]),
                                          step[1], cycles)
                    elif tag == 0:
                        line = step[2]
                        if line != current_line:
                            cycles += ifetch(step[1], cycles)
                            current_line = line
                    elif tag == 6:
                        cycles = data_run(step[2], step[1], cycles)
                    elif tag == 5:
                        write = step[1]
                        pc = step[2]
                        region = step[3]
                        base = region.base
                        for offset in step[4].offsets(region, step[5], rng):
                            cycles += 1
                            cycles += data_access(base + offset, write,
                                                  cycles, pc)
                    elif tag == 2:
                        n = step[1]
                        for _ in range(n):
                            rng_random()
                        cycles += n
                    else:  # tag == 3: syscall trap entry/exit
                        cycles += 21 * step[1]
                for icls, count in pairs:
                    class_counts[icls] += count
            elif kind is AssembledLoop:
                backedge = node.backedge
                bpc = backedge.pc
                bline = bpc >> line_shift
                body_nodes = node.body
                trips = node.trips
                for _ in range(trips):
                    cycles, current_line = run_body(
                        body_nodes, cycles, current_line, depth)
                    if bline != current_line:
                        cycles += ifetch(bpc, cycles)
                        current_line = bline
                    cycles += 1
                class_counts[backedge.icls] += trips
            elif kind is AssembledCall:
                call_instr = node.call_instr
                line = call_instr.pc >> line_shift
                if line != current_line:
                    cycles += ifetch(call_instr.pc, cycles)
                    current_line = line
                cycles += 1
                class_counts[call_instr.icls] += 1
                if depth >= _MAX_CALL_DEPTH:
                    raise RecursionError(
                        "call depth exceeded %d in %r"
                        % (_MAX_CALL_DEPTH, node.routine))
                cycles, current_line = run_body(
                    routines[node.routine].body, cycles, current_line,
                    depth + 1)
                ret_instr = node.ret_instr
                line = ret_instr.pc >> line_shift
                if line != current_line:
                    cycles += ifetch(ret_instr.pc, cycles)
                    current_line = line
                cycles += 1
                class_counts[ret_instr.icls] += 1
            else:
                raise TypeError("unknown assembled node %r" % (node,))
        return cycles, current_line

    cycles, _ = run_body(routines[assembled.entry].body, 0, -1, 0)
    return cycles, class_counts


# ---------------------------------------------------------------------------
# Functional-warming tier
# ---------------------------------------------------------------------------


def _gen_warm_steps(gen: _Gen, steps, indent: int) -> bool:
    emit = gen.emit
    for step in steps:
        tag = step[0]
        if tag == 0:
            ok = (emit(indent, "if current_line != %d:" % step[2])
                  and emit(indent + 1, "warm_touch(%d, True)" % step[1])
                  and emit(indent + 1, "current_line = %d" % step[2]))
        elif tag == 1:
            write, pc, addrs = step[1], step[2], step[3]
            if len(addrs) <= _UNROLL:
                ok = True
                for addr in addrs:
                    ok = ok and emit(indent, "warm_touch(%d, False, %r, %d)"
                                     % (addr, write, pc))
            else:
                name = gen.bind(addrs)
                ok = (emit(indent, "for _addr in %s:" % name)
                      and emit(indent + 1, "warm_touch(_addr, False, %r, %d)"
                               % (write, pc)))
        elif tag == 2:
            write, pc, region, pattern, n = step[1:]
            offsets = gen.bind(pattern.offsets)
            reg = gen.bind(region)
            ok = (emit(indent, "for _off in %s(%s, %d, rng):"
                       % (offsets, reg, n))
                  and emit(indent + 1, "warm_touch(%d + _off, False, %r, %d)"
                           % (region.base, write, pc)))
        elif tag == 3:
            pc, n = step[1], step[2]
            ok = emit(indent, "if predict is not None:")
            if n <= _UNROLL:
                for _ in range(n):
                    ok = ok and emit(indent + 1, "predict(%d, True)" % pc)
            else:
                ok = (ok and emit(indent + 1, "for _i in range(%d):" % n)
                      and emit(indent + 2, "predict(%d, True)" % pc))
        elif tag == 4:
            pc, n, probability = step[1], step[2], step[3]
            ok = (emit(indent, "if predict is not None:")
                  and emit(indent + 1, "for _i in range(%d):" % n)
                  and emit(indent + 2, "predict(%d, rng_random() < %r)"
                           % (pc, probability))
                  and emit(indent, "else:")
                  and emit(indent + 1, "for _i in range(%d):" % n)
                  and emit(indent + 2, "rng_random()"))
        else:  # tag == 5: paired (pc, addr) memory run (lazy-unroll form)
            write, pairs = step[1], step[2]
            if len(pairs) <= _UNROLL:
                ok = True
                for pc, addr in pairs:
                    ok = ok and emit(indent, "warm_touch(%d, False, %r, %d)"
                                     % (addr, write, pc))
            else:
                name = gen.bind(pairs)
                ok = (emit(indent, "for _pc, _addr in %s:" % name)
                      and emit(indent + 1,
                               "warm_touch(_addr, False, %r, _pc)"
                               % (write,)))
        if not ok:
            return False
    return True


def _gen_warm_node(gen: _Gen, node, line_shift: int, decode_cache,
                   indent: int, depth: int) -> Optional[int]:
    kind = type(node)
    if kind is AssembledBlock:
        decoded = decode_cache.get(id(node))
        if decoded is None:
            decoded = decode_cache[id(node)] = predecode._decode_warm_block(
                node, line_shift)
        steps, block_count = decoded
        if not _gen_warm_steps(gen, steps, indent):
            return None
        return block_count
    if kind is AssembledLoop:
        trips = node.trips
        trip = "_t%d" % depth
        if not gen.emit(indent, "for %s in range(%d):" % (trip, trips)):
            return None
        body_count = 0
        for child in node.body:
            child_count = _gen_warm_node(gen, child, line_shift,
                                         decode_cache, indent + 1, depth + 1)
            if child_count is None:
                return None
            body_count += child_count
        backedge = node.backedge
        bline = backedge.pc >> line_shift
        ok = (gen.emit(indent + 1, "if current_line != %d:" % bline)
              and gen.emit(indent + 2, "warm_touch(%d, True)" % backedge.pc)
              and gen.emit(indent + 2, "current_line = %d" % bline)
              and gen.emit(indent + 1, "if predict is not None:")
              and gen.emit(indent + 2, "predict(%d, %s != %d)"
                           % (backedge.pc, trip, trips - 1)))
        if not ok:
            return None
        return trips * (body_count + 1)
    return None  # calls are never compiled


def _compile_warm(node, line_shift: int, decode_cache):
    start = time.perf_counter()
    gen = _Gen()
    count = _gen_warm_node(gen, node, line_shift, decode_cache, 1, 0)
    if count is None:
        STATS["declined"] += 1
        return False
    fn = gen.build("current_line, warm_touch, rng, rng_random, predict",
                   "current_line", "warm")
    STATS["compiled_units"] += 1
    STATS["compile_s"] += time.perf_counter() - start
    return fn, count


def warm_run(assembled, seed: int, mem, bpred=None) -> int:
    """Tier-3 functional pass; bit-identical to ``predecode.warm_run``."""
    import random

    rng = random.Random("%d|%d|trace" % (assembled.program.seed, seed))
    rng_random = rng.random
    line_shift = mem._line_shift
    warm_touch = mem.warm_touch
    predict = bpred.predict_and_update if bpred is not None else None
    decode_cache = predecode._cache_for(assembled, ("warm", line_shift))
    jit_cache = predecode._cache_for(assembled, ("jit-warm", line_shift))
    routines = assembled.routines
    total = [0]
    stats = STATS
    promote_at = _THRESHOLD

    def run_body(body, current_line, depth):
        for node in body:
            entry = jit_cache.get(id(node))
            if entry is None:
                entry = jit_cache[id(node)] = [0, None]
            state = entry[1]
            if state is None:
                entry[0] += 1
                if entry[0] >= promote_at:
                    state = entry[1] = _compile_warm(
                        node, line_shift, decode_cache)
            if state:
                fn, count = state
                current_line = fn(current_line, warm_touch, rng, rng_random,
                                  predict)
                total[0] += count
                stats["compiled_calls"] += 1
                continue
            stats["interpreted_calls"] += 1
            kind = type(node)
            if kind is AssembledBlock:
                predecode.STATS["block_replays"] += 1
                decoded = decode_cache.get(id(node))
                if decoded is None:
                    predecode.STATS["decoded_blocks"] += 1
                    decoded = decode_cache[id(node)] = (
                        predecode._decode_warm_block(node, line_shift))
                steps, block_count = decoded
                total[0] += block_count
                for step in steps:
                    tag = step[0]
                    if tag == 1:
                        write = step[1]
                        pc = step[2]
                        for addr in step[3]:
                            warm_touch(addr, False, write, pc)
                    elif tag == 0:
                        line = step[2]
                        if line != current_line:
                            warm_touch(step[1], True)
                            current_line = line
                    elif tag == 5:
                        write = step[1]
                        for pc, addr in step[2]:
                            warm_touch(addr, False, write, pc)
                    elif tag == 2:
                        write = step[1]
                        pc = step[2]
                        region = step[3]
                        base = region.base
                        for offset in step[4].offsets(region, step[5], rng):
                            warm_touch(base + offset, False, write, pc)
                    elif tag == 3:
                        if predict is not None:
                            pc = step[1]
                            for _ in range(step[2]):
                                predict(pc, True)
                    else:  # tag == 4
                        pc = step[1]
                        probability = step[3]
                        if predict is not None:
                            for _ in range(step[2]):
                                predict(pc, rng_random() < probability)
                        else:
                            for _ in range(step[2]):
                                rng_random()
            elif kind is AssembledLoop:
                backedge = node.backedge
                bpc = backedge.pc
                bline = bpc >> line_shift
                body_nodes = node.body
                last = node.trips - 1
                for trip in range(node.trips):
                    current_line = run_body(body_nodes, current_line, depth)
                    if bline != current_line:
                        warm_touch(bpc, True)
                        current_line = bline
                    if predict is not None:
                        predict(bpc, trip != last)
                total[0] += node.trips
            elif kind is AssembledCall:
                line = node.call_instr.pc >> line_shift
                if line != current_line:
                    warm_touch(node.call_instr.pc, True)
                    current_line = line
                if depth >= _MAX_CALL_DEPTH:
                    raise RecursionError(
                        "call depth exceeded %d in %r"
                        % (_MAX_CALL_DEPTH, node.routine))
                current_line = run_body(
                    routines[node.routine].body, current_line, depth + 1)
                line = node.ret_instr.pc >> line_shift
                if line != current_line:
                    warm_touch(node.ret_instr.pc, True)
                    current_line = line
                total[0] += 2
            else:
                raise TypeError("unknown assembled node %r" % (node,))
        return current_line

    run_body(routines[assembled.entry].body, -1, 0)
    return total[0]


# ---------------------------------------------------------------------------
# O3 run-stream tier
# ---------------------------------------------------------------------------
#
# Compiled states (stored in the jit cache per node):
#   ("runs", runs)                 rng-free: constant run tuple, yield from
#   ("fn", fn)                     rng-dependent block: generated builder
#                                  fn(rng, rng_random) -> list of runs
#   ("loop", body, taken, fall, trips)
#                                  rng-free loop: flattened body tuple
#                                  replayed per trip


def _o3_flatten(node, line_shift, lat_t, busy_t, ser_t, decode_cache,
                budget: List[int]) -> Optional[List[tuple]]:
    """Flatten an rng-free subtree to a run list; None if impossible."""
    kind = type(node)
    if kind is AssembledBlock:
        decoded = decode_cache.get(id(node))
        if decoded is None:
            decoded = decode_cache[id(node)] = predecode._decode_o3_block(
                node, line_shift, lat_t, busy_t, ser_t)
        runs = []
        for tag, payload in decoded:
            if tag != 0:
                return None
            runs.append(payload)
        budget[0] -= len(runs)
        if budget[0] < 0:
            return None
        return runs
    if kind is AssembledLoop:
        body: List[tuple] = []
        for child in node.body:
            flat = _o3_flatten(child, line_shift, lat_t, busy_t, ser_t,
                               decode_cache, budget)
            if flat is None:
                return None
            body.extend(flat)
        pair = _o3_edge_pair(node, line_shift, lat_t, busy_t, ser_t,
                             decode_cache)
        taken_run, fall_run = pair
        budget[0] -= node.trips * (len(body) + 1)
        if budget[0] < 0:
            return None
        runs = []
        for trip in range(node.trips):
            runs.extend(body)
            runs.append(taken_run if trip != node.trips - 1 else fall_run)
        return runs
    return None  # calls are never flattened


def _o3_edge_pair(node, line_shift, lat_t, busy_t, ser_t, decode_cache):
    pair = decode_cache.get(id(node))
    if pair is None:
        backedge = node.backedge
        pair = decode_cache[id(node)] = (
            predecode._edge_run(backedge, True, line_shift,
                                lat_t, busy_t, ser_t),
            predecode._edge_run(backedge, False, line_shift,
                                lat_t, busy_t, ser_t),
        )
    return pair


def _compile_o3_block(decoded):
    """Generate a run-list builder for an rng-dependent decoded block."""
    start = time.perf_counter()
    gen = _Gen()
    if len(decoded) > _MAX_STMTS:
        STATS["declined"] += 1
        return False
    gen.emit(1, "runs = []")
    gen.emit(1, "append = runs.append")
    for tag, payload in decoded:
        if tag == 0:
            gen.emit(1, "append(%s)" % gen.bind(payload))
        elif tag == 1:
            (count, icls, pc, line, srcs, dst, lanes, ser, lat, busy,
             memkind, region, pattern) = payload
            offsets = gen.bind(pattern.offsets)
            reg = gen.bind(region)
            head = gen.bind((count, icls, pc, line, srcs, dst, lanes,
                             ser, lat, busy, memkind))
            gen.emit(1, "append(%s + ([%d + _o for _o in %s(%s, %d, rng)],"
                        " None))" % (head, region.base, offsets, reg, count))
        else:
            (count, icls, pc, line, srcs, dst, lanes, ser, lat, busy,
             probability) = payload
            head = gen.bind((count, icls, pc, line, srcs, dst, lanes,
                             ser, lat, busy, 0, None))
            gen.emit(1, "append(%s + ([rng_random() < %r"
                        " for _i in range(%d)],))" % (head, probability,
                                                      count))
    fn = gen.build("rng, rng_random", "runs", "o3")
    STATS["compiled_units"] += 1
    STATS["compile_s"] += time.perf_counter() - start
    return "fn", fn


def _compile_o3(node, line_shift, lat_t, busy_t, ser_t, decode_cache):
    kind = type(node)
    if kind is AssembledBlock:
        decoded = decode_cache.get(id(node))
        if decoded is None:
            decoded = decode_cache[id(node)] = predecode._decode_o3_block(
                node, line_shift, lat_t, busy_t, ser_t)
        if all(tag == 0 for tag, _ in decoded):
            start = time.perf_counter()
            runs = tuple(payload for _, payload in decoded)
            STATS["compiled_units"] += 1
            STATS["compile_s"] += time.perf_counter() - start
            return "runs", runs
        return _compile_o3_block(decoded)
    if kind is AssembledLoop:
        start = time.perf_counter()
        budget = [_MAX_STMTS]
        body: List[tuple] = []
        for child in node.body:
            flat = _o3_flatten(child, line_shift, lat_t, busy_t, ser_t,
                               decode_cache, budget)
            if flat is None:
                STATS["declined"] += 1
                return False
            body.extend(flat)
        taken_run, fall_run = _o3_edge_pair(node, line_shift, lat_t, busy_t,
                                            ser_t, decode_cache)
        STATS["compiled_units"] += 1
        STATS["compile_s"] += time.perf_counter() - start
        return "loop", tuple(body), taken_run, fall_run, node.trips
    STATS["declined"] += 1
    return False


def o3_stream(assembled, seed, line_shift, lat_t, busy_t, ser_t):
    """Tier-3 run stream; bit-identical to the tier-2 decoded stream."""
    import random

    rng = random.Random("%d|%d|trace" % (assembled.program.seed, seed))
    rng_random = rng.random
    decode_cache = predecode._cache_for(assembled, ("o3", line_shift))
    jit_cache = predecode._cache_for(assembled, ("jit-o3", line_shift))
    routines = assembled.routines
    stats = STATS
    promote_at = _THRESHOLD

    def run_body(body, depth):
        for node in body:
            entry = jit_cache.get(id(node))
            if entry is None:
                entry = jit_cache[id(node)] = [0, None]
            state = entry[1]
            if state is None:
                entry[0] += 1
                if entry[0] >= promote_at:
                    state = entry[1] = _compile_o3(
                        node, line_shift, lat_t, busy_t, ser_t, decode_cache)
            if state:
                stats["compiled_calls"] += 1
                shape = state[0]
                if shape == "runs":
                    yield from state[1]
                    continue
                if shape == "fn":
                    yield from state[1](rng, rng_random)
                    continue
                _, body_runs, taken_run, fall_run, trips = state
                last = trips - 1
                for trip in range(trips):
                    yield from body_runs
                    yield taken_run if trip != last else fall_run
                continue
            stats["interpreted_calls"] += 1
            kind = type(node)
            if kind is AssembledBlock:
                predecode.STATS["block_replays"] += 1
                decoded = decode_cache.get(id(node))
                if decoded is None:
                    predecode.STATS["decoded_blocks"] += 1
                    decoded = decode_cache[id(node)] = (
                        predecode._decode_o3_block(node, line_shift, lat_t,
                                                   busy_t, ser_t))
                for tag, payload in decoded:
                    if tag == 0:
                        yield payload
                    elif tag == 1:
                        (count, icls, pc, line, srcs, dst, lanes, ser,
                         lat, busy, memkind, region, pattern) = payload
                        base = region.base
                        addrs = [base + offset for offset in
                                 pattern.offsets(region, count, rng)]
                        yield (count, icls, pc, line, srcs, dst, lanes,
                               ser, lat, busy, memkind, addrs, None)
                    else:
                        (count, icls, pc, line, srcs, dst, lanes, ser,
                         lat, busy, probability) = payload
                        takens = [rng_random() < probability
                                  for _ in range(count)]
                        yield (count, icls, pc, line, srcs, dst, lanes,
                               ser, lat, busy, 0, None, takens)
            elif kind is AssembledLoop:
                taken_run, fall_run = _o3_edge_pair(
                    node, line_shift, lat_t, busy_t, ser_t, decode_cache)
                body_nodes = node.body
                last = node.trips - 1
                for trip in range(node.trips):
                    for run in run_body(body_nodes, depth):
                        yield run
                    yield taken_run if trip != last else fall_run
            elif kind is AssembledCall:
                pair = decode_cache.get(id(node))
                if pair is None:
                    pair = decode_cache[id(node)] = (
                        predecode._edge_run(node.call_instr, None,
                                            line_shift, lat_t, busy_t,
                                            ser_t),
                        predecode._edge_run(node.ret_instr, None,
                                            line_shift, lat_t, busy_t,
                                            ser_t),
                    )
                yield pair[0]
                if depth >= _MAX_CALL_DEPTH:
                    raise RecursionError(
                        "call depth exceeded %d in %r"
                        % (_MAX_CALL_DEPTH, node.routine))
                for run in run_body(routines[node.routine].body, depth + 1):
                    yield run
                yield pair[1]
            else:
                raise TypeError("unknown assembled node %r" % (node,))

    return run_body(routines[assembled.entry].body, 0)
