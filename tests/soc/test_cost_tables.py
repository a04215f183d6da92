"""Memoized cost tables: bit-equality with the inline sums they replace."""

import pytest

from repro.frameworks.cpu_kernels import (
    IMPL_REFERENCE,
    IMPL_TUNED,
    graph_cpu_work_us,
    op_cpu_work_us,
)
from repro.models import load_model
from repro.sim import Simulator
from repro.soc import cost_tables
from repro.soc.catalog import make_soc


@pytest.fixture(autouse=True)
def fresh_tables():
    cost_tables.clear_cost_tables()
    yield
    cost_tables.clear_cost_tables()


def _soc():
    return make_soc(Simulator(seed=0), "sd855")


# -- bit-equality with the uncached fold --------------------------------


@pytest.mark.parametrize("dtype,impl", [
    ("fp32", IMPL_TUNED),
    ("fp16", IMPL_TUNED),
    ("int8", IMPL_TUNED),
    ("fp32", IMPL_REFERENCE),
    ("int8", IMPL_REFERENCE),
])
def test_cpu_total_bit_equal_to_inline_sum(dtype, impl):
    ops = load_model("mobilenet_v1", dtype).ops
    expected = sum(op_cpu_work_us(op, dtype, impl) for op in ops)
    assert graph_cpu_work_us(ops, dtype, impl) == expected
    # The cached read on the second call is the same float, not merely
    # a close one.
    assert graph_cpu_work_us(ops, dtype, impl) == expected


@pytest.mark.parametrize("dtype", ["fp32", "fp16", "int8"])
def test_gpu_total_bit_equal_to_inline_sum(dtype):
    soc = _soc()
    ops = load_model("inception_v3", dtype).ops
    expected = sum(soc.gpu.op_time_us(op, dtype) for op in ops)
    assert soc.gpu.graph_time_us(ops, dtype) == expected
    assert soc.gpu.graph_time_us(ops, dtype) == expected


@pytest.mark.parametrize("dtype", ["int8", "fp32"])
def test_dsp_total_bit_equal_to_inline_sum(dtype):
    soc = _soc()
    ops = load_model("mobilenet_v1", "int8").ops
    expected = sum(soc.dsp.op_time_us(op, dtype) for op in ops)
    assert soc.dsp.graph_time_us(ops, dtype) == expected


# -- memoization keys ---------------------------------------------------


def test_same_ops_tuple_hits_by_identity():
    ops = load_model("mobilenet_v1", "fp32").ops
    graph_cpu_work_us(ops, "fp32")
    before = cost_tables.cost_table_stats()
    graph_cpu_work_us(ops, "fp32")
    after = cost_tables.cost_table_stats()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


def test_equal_content_tuple_gets_its_own_bit_equal_entry():
    ops = load_model("mobilenet_v1", "fp32").ops
    clone = tuple(list(ops))  # equal content, distinct object
    assert clone is not ops
    total = graph_cpu_work_us(ops, "fp32")
    assert graph_cpu_work_us(clone, "fp32") == total
    stats = cost_tables.cost_table_stats()
    assert stats["tables"] == 2  # one entry per tuple identity
    assert stats["misses"] == 2


def test_id_entries_pin_the_exact_tuple_they_key():
    """Regression guard for id-recycling: every cache entry must hold
    the very object whose address it is keyed on, otherwise CPython may
    hand a dead tuple's id to a different graph and a lookup would
    return the wrong costs."""
    ops = load_model("mobilenet_v1", "fp32").ops
    graph_cpu_work_us(ops, "fp32")
    graph_cpu_work_us(tuple(list(ops)), "fp32")
    for (_config, oid), (pinned, _total) in cost_tables._tables.items():
        assert id(pinned) == oid


def test_cpu_gpu_and_dsp_pricing_share_one_cache():
    soc = _soc()
    ops = load_model("mobilenet_v1", "int8").ops

    def price_all():
        return (
            graph_cpu_work_us(ops, "int8"),
            soc.gpu.graph_time_us(ops, "int8"),
            soc.dsp.graph_time_us(ops, "int8"),
        )

    first = price_all()
    assert cost_tables.cost_table_stats() == {
        "tables": 3, "hits": 0, "misses": 3,
    }
    # One entry per pricing config, all keyed on the same tuple.
    assert sorted(config[0] for config, _oid in cost_tables._tables) == [
        "cpu", "dsp", "gpu",
    ]
    assert {oid for _config, oid in cost_tables._tables} == {id(ops)}
    assert price_all() == first
    assert cost_tables.cost_table_stats() == {
        "tables": 3, "hits": 3, "misses": 3,
    }


def test_configs_do_not_alias():
    soc = _soc()
    ops = load_model("mobilenet_v1", "int8").ops
    cpu = graph_cpu_work_us(ops, "int8")
    cpu_ref = graph_cpu_work_us(ops, "int8", IMPL_REFERENCE)
    gpu = soc.gpu.graph_time_us(ops, "int8")
    dsp = soc.dsp.graph_time_us(ops, "int8")
    assert len({cpu, cpu_ref, gpu, dsp}) == 4


def test_different_device_scale_prices_differently():
    sim = Simulator(seed=0)
    slow, fast = make_soc(sim, "sd835"), make_soc(sim, "sd865")
    ops = load_model("mobilenet_v1", "int8").ops
    if slow.dsp.scale == fast.dsp.scale:
        pytest.skip("catalog gives both SoCs the same DSP scale")
    assert (
        slow.dsp.graph_time_us(ops, "int8")
        != fast.dsp.graph_time_us(ops, "int8")
    )


def test_list_ops_are_priced_but_not_cached():
    ops = list(load_model("mobilenet_v1", "fp32").ops)
    expected = sum(op_cpu_work_us(op, "fp32") for op in ops)
    assert graph_cpu_work_us(ops, "fp32") == expected
    assert cost_tables.cost_table_stats()["tables"] == 0


def test_clear_resets_everything():
    ops = load_model("mobilenet_v1", "fp32").ops
    graph_cpu_work_us(ops, "fp32")
    cost_tables.clear_cost_tables()
    assert cost_tables.cost_table_stats() == {
        "tables": 0, "hits": 0, "misses": 0,
    }
