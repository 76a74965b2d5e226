"""Property-based tests for symbolic plan keys and guarded families.

Three invariant groups, all hypothesis-driven:

* **Guard algebra** — round-trips (JSON, canonical ordering), split
  semantics (a split sibling admits the violator; the violated region
  never silently widens back), and the recorder's baked-constant regions
  (``floordiv`` guards admit exactly the values that reproduce the baked
  constant).
* **Cache families** — the concrete path is the degenerate family
  (``dims=()`` is byte-for-byte ``get_or_build``), family lookup is
  first-admitting-sibling, and a split never re-admits the shape that
  caused it to the old sibling.
* **Emission differential** — any ``n_bh`` admitted by a recorded
  family's guards re-emits the byte-identical module and produces output
  identical to a fresh concrete compile of that shape.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.plan import (
    BoundGuard,
    BucketGuard,
    DivisibleGuard,
    EqGuard,
    GuardRecorder,
    GuardSet,
    PlanCache,
    PlanKey,
    SymbolicPlanKey,
    family_base,
    guard_from_dict,
    guard_to_dict,
    trivially_guarded,
)

# ------------------------------------------------------------- strategies

values = st.integers(min_value=0, max_value=1 << 16)
names = st.sampled_from(("seq_len", "pos", "n_bh", "nnz_blocks"))


@st.composite
def guards(draw):
    kind = draw(st.sampled_from(("eq", "div", "bound", "bucket")))
    var = draw(names)
    if kind == "eq":
        return EqGuard(var, draw(values))
    if kind == "div":
        mod = draw(st.integers(min_value=1, max_value=512))
        return DivisibleGuard(var, mod, draw(st.integers(0, mod - 1)))
    if kind == "bucket":
        return BucketGuard(
            var, draw(st.integers(1, 512)), draw(st.integers(0, 64))
        )
    lo = draw(st.none() | values)
    hi = draw(st.none() | values)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return BoundGuard(var, lo=lo, hi=hi)


@st.composite
def guard_sets(draw):
    return GuardSet(draw(st.lists(guards(), max_size=6)))


@st.composite
def shapes(draw):
    return {
        "seq_len": draw(values),
        "pos": draw(values),
        "n_bh": draw(values),
        "nnz_blocks": draw(values),
    }


# ----------------------------------------------------------- guard algebra


@given(guards())
def test_guard_json_round_trip(g):
    assert guard_from_dict(json.loads(json.dumps(guard_to_dict(g)))) == g


@given(guard_sets())
def test_guard_set_payload_round_trip(gs):
    back = GuardSet.from_payload(json.loads(json.dumps(gs.to_payload())))
    assert back == gs
    assert back.digest == gs.digest


@given(st.lists(guards(), max_size=6), st.randoms())
def test_guard_set_order_insensitive(gl, rnd):
    shuffled = list(gl)
    rnd.shuffle(shuffled)
    a, b = GuardSet(gl), GuardSet(shuffled)
    assert a == b
    assert hash(a) == hash(b)
    assert a.digest == b.digest


@given(guard_sets(), shapes())
def test_split_admits_the_violator(gs, shape):
    split = gs.split_for(shape)
    assert split.check(shape)
    if gs.check(shape):
        assert split == gs  # nothing violated: split is the identity


@given(guards(), values)
def test_single_guard_split_excludes_old_region(g, v):
    """The split sibling admits the violator; the old guard still rejects
    it — the two regions stay disjoint at the violating point."""
    if g.check(v):
        return
    sibling = g.split(v)
    assert sibling.check(v)
    assert not g.check(v)


@given(
    st.integers(min_value=1, max_value=1 << 22),
    st.integers(min_value=1, max_value=4096),
    st.integers(min_value=1, max_value=4096),
)
def test_floordiv_guard_region_is_exact(numerator, coeff, v):
    """Every value the recorded guard admits bakes the same constant."""
    rec = GuardRecorder(n_bh=v)
    baked = rec.floordiv("n_bh", numerator, coeff)
    gs = rec.guard_set()
    assert baked == max(1, numerator // (coeff * v))
    (guard,) = gs.guards
    for probe in (v - 1, v + 1, guard.lo, guard.hi):
        if probe is None or probe < 1:
            continue
        expected = max(1, numerator // (coeff * probe))
        assert gs.check({"n_bh": probe}) == (expected == baked), (
            probe, baked, expected,
        )


@given(st.integers(1, 1 << 20), st.integers(1, 1 << 20))
def test_recorder_le_records_exact_half_line(value, bound):
    rec = GuardRecorder(n_bh=value)
    answer = rec.le("n_bh", bound)
    gs = rec.guard_set()
    assert answer == (value <= bound)
    # The guard admits exactly the values answering the same way.
    assert gs.check({"n_bh": bound}) == answer
    assert gs.check({"n_bh": bound + 1}) == (not answer)


def test_guard_validation():
    with pytest.raises(ConfigError):
        DivisibleGuard("x", 0)
    with pytest.raises(ConfigError):
        DivisibleGuard("x", 4, 4)
    with pytest.raises(ConfigError):
        BoundGuard("x", lo=5, hi=4)
    with pytest.raises(ConfigError):
        BucketGuard("x", 0, 0)


def test_check_fails_on_missing_vars():
    gs = GuardSet([BoundGuard("pos", hi=128)])
    assert not gs.check({})
    assert gs.check({"pos": 7})


# --------------------------------------------------------- cache families


def _key(seq_len: int, kind: str = "mha") -> PlanKey:
    return PlanKey(kind=kind, batch=1, heads=2, seq_len=seq_len,
                   kv_seq_len=seq_len, head_size=16, pattern="causal")


def test_concrete_path_is_degenerate_family():
    a, b = PlanCache(), PlanCache()
    key = _key(64)
    va = a.get_or_build(key, lambda: "plan")
    vb = b.get_or_build_family(key, (), {}, lambda: "plan")
    assert va == vb
    assert a.stats() == b.stats()
    assert b.stats()["symbolic"]["families"] == 0


@given(st.lists(st.integers(1, 4096), min_size=1, max_size=24))
def test_family_lookup_never_silently_reuses(seqs):
    """Each distinct guard region builds exactly once; every revisit of an
    admitted shape replays the family's value, never a stale sibling's."""
    cache = PlanCache(max_entries=None)
    built = []

    def plan_for(seq_len):
        bucket = seq_len // 256
        guards = GuardSet([BucketGuard("seq_len", 256, bucket)])
        key = PlanKey(kind="mha", batch=1, heads=2, seq_len=seq_len,
                      kv_seq_len=4096, head_size=16, pattern="causal")
        def build():
            built.append(bucket)
            return ("plan", bucket)
        return cache.get_or_build_family(
            key, ("seq_len",), {"seq_len": seq_len}, build, guards=guards,
        )

    for seq in seqs:
        value = plan_for(seq)
        assert value == ("plan", seq // 256)  # guard admits => right plan
    assert sorted(set(built)) == sorted(built)  # one build per region


def test_split_family_never_readmits_violator():
    cache = PlanCache(max_entries=None)
    key = _key(100)
    guards = GuardSet([BoundGuard("seq_len", hi=128)])
    fam1 = cache.family_key(key, ("seq_len",), {"seq_len": 100}, guards)
    cache.put(fam1, "small")
    # A violating shape resolves to a *new* sibling...
    fam2 = cache.family_key(
        key, ("seq_len",), {"seq_len": 500},
        GuardSet([BoundGuard("seq_len", hi=1024)]),
    )
    assert fam2 is not fam1
    assert fam2.admits({"seq_len": 500})
    # ...whose guards exclude the old sibling's region (the narrowed
    # complement of the violated bound), and the old sibling still
    # rejects the violator: the regions never overlap at either probe.
    assert not fam1.admits({"seq_len": 500})
    assert not fam2.admits({"seq_len": 100})
    cache.put(fam2, "large")
    assert cache.stats()["symbolic"]["splits"] == 1
    # Lookup returns the right sibling for each region.
    assert cache.find_family(fam1.base, ("seq_len",), {"seq_len": 64}) == fam1
    assert cache.find_family(fam1.base, ("seq_len",), {"seq_len": 999}) == fam2


def test_family_base_zeroes_only_symbolic_key_fields():
    key = _key(384)
    base = family_base(key, ("seq_len", "pos"))
    assert base.seq_len == 0
    assert base.kv_seq_len == 384     # not freed
    assert base.kind == key.kind
    assert family_base(key, ("pos",)) == key  # derived dim: base untouched


def test_trivially_guarded_pins_exactly():
    fam = trivially_guarded(_key(256), ("seq_len",))
    assert fam.admits({"seq_len": 256})
    assert not fam.admits({"seq_len": 257})
    with pytest.raises(ConfigError):
        trivially_guarded(_key(256), ("pos",))


# ------------------------------------------------------------- persistence


def test_v2_round_trip_preserves_families(tmp_path):
    cache = PlanCache(max_entries=None)
    fam = SymbolicPlanKey(
        family_base(_key(0, "serving-decode"), ("pos",)),
        ("pos",),
        GuardSet([BucketGuard("pos", 64, 3)]),
    )
    cache.put(fam, {"rows": 7})
    cache.put(_key(128), 0.5)
    path = tmp_path / "cache.json"
    cache.save(path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    assert len(payload["families"]) == 1

    warm = PlanCache(max_entries=None)
    assert warm.load(path) == 2
    restored = warm.find_family(fam.base, ("pos",), {"pos": 200})
    assert restored == fam
    assert warm.peek(restored) == {"rows": 7}
    assert warm.peek(_key(128)) == 0.5
    # Warm-starting restores structure, not this process's split events.
    assert warm.stats()["symbolic"]["splits"] == 0


def test_v1_files_still_load(tmp_path):
    """The pre-families schema (concrete keys only) stays loadable."""
    key = _key(96)
    payload = {
        "version": 1,
        "entries": [{"key": key.to_dict(), "value": {"t": "num", "v": 3.5}}],
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(payload))
    cache = PlanCache()
    assert cache.load(path) == 1
    assert cache.peek(key) == 3.5
    assert cache.stats()["symbolic"]["families"] == 0


# ------------------------------------------------------ emission differential


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=8, max_value=48),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=64),
    st.randoms(use_true_random=False),
)
def test_admitted_shapes_reemit_identical_modules(seq, n_bh_a, n_bh_b, rnd):
    """Any n_bh admitted by a recorded family's guards re-emits the
    byte-identical module, and the family module run at that shape
    matches the loop oracle."""
    from repro.codegen.rowwise import specialize_rowwise
    from repro.core.fp16 import fp16_allclose, to_fp16
    from repro.mha.rowwise import RowWiseKernel

    mask = np.zeros((seq, seq), dtype=bool)
    for i in range(seq):
        for j in range(max(0, i - 4), i + 1):
            mask[i, j] = rnd.random() < 0.8
    mask[0, 0] = True
    nnz = int(mask.sum())
    row_ptr = np.zeros(seq + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=row_ptr[1:])
    col_idx = np.nonzero(mask)[1].astype(np.int64)
    assert row_ptr[-1] == nnz

    rec = GuardRecorder(n_bh=n_bh_a)
    fam = specialize_rowwise(row_ptr, col_idx, mask, 8, rec, "family:x", "custom")
    guards = rec.guard_set()
    if not guards.check({"n_bh": n_bh_b}):
        return  # not in this family: would be a split, not a reuse

    rec_b = GuardRecorder(n_bh=n_bh_b)
    fam_b = specialize_rowwise(
        row_ptr, col_idx, mask, 8, rec_b, "family:x", "custom"
    )
    assert fam_b.source == fam.source       # byte-identical re-emission
    assert rec_b.guard_set() == guards      # same region recorded

    # Loop oracle: the family module emitted at n_bh_a, run at n_bh_b,
    # matches the per-row traversal at the FP16 noise floor.
    rng = np.random.default_rng(0)
    q = rng.standard_normal((n_bh_b, seq, 8)).astype(np.float32)
    k = rng.standard_normal((n_bh_b, seq, 8)).astype(np.float32)
    v = rng.standard_normal((n_bh_b, seq, 8)).astype(np.float32)

    def run(gen):
        ns = {}
        exec(compile(gen.source, "<test>", "exec"), ns)
        return ns["run"](q, k, v, gen.consts)

    out_family = run(fam)
    out_loop = RowWiseKernel(exec_backend="loop")._run_loop(row_ptr, col_idx, q, k, v)
    assert out_family.shape == out_loop.shape
    assert fp16_allclose(out_family, to_fp16(out_loop))
