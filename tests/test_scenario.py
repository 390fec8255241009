"""Scenario: one description of a serve, cluster or replay run."""

import dataclasses

import pytest

from repro.cluster.runtime import ClusterResult
from repro.harness.scenario import Scenario, ScenarioError
from repro.serving import ServingResult

SMALL = Scenario(rate=2e3, tenants=2, seed=5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("rate", -1.0),
        ("tenants", 0),
        ("slo_s", 0.0),
        ("scheduler", "nosuch"),
        ("system", "bogus"),
        ("queue_limit", 0),
        ("max_backlog", 0),
        ("admission", "bogus"),
        ("admission_margin", 0.0),
        ("nodes", -1),
        ("placement", "bogus"),
    ],
)
def test_rejects_out_of_range_fields(field, value):
    with pytest.raises(ScenarioError) as caught:
        dataclasses.replace(SMALL, **{field: value})
    assert caught.value.field == field


def test_tenant_weights_fall_with_index():
    tenants = Scenario(tenants=3, queue_limit=7).tenant_list()
    assert [(t.name, t.weight, t.queue_limit) for t in tenants] == [
        ("tenant-0", 3.0, 7),
        ("tenant-1", 2.0, 7),
        ("tenant-2", 1.0, 7),
    ]
    named = SMALL.tenant_list(("web", "batch"))
    assert [(t.name, t.weight) for t in named] == [("web", 2.0), ("batch", 1.0)]


def test_poisson_uses_the_scenario_seed_unless_given():
    assert SMALL.poisson(0.01).seed == 5
    assert SMALL.poisson(0.01, seed=9).seed == 9
    assert SMALL.poisson(0.01).tenants == ("tenant-0", "tenant-1")


def test_run_forks_on_nodes_and_one_node_cluster_matches_serve():
    served = SMALL.run(SMALL.poisson(0.01), "serve")
    assert isinstance(served, ServingResult)
    one_node = dataclasses.replace(SMALL, nodes=1)
    clustered = one_node.run(one_node.poisson(0.01), "serve")
    assert isinstance(clustered, ClusterResult)
    cluster_report = clustered.report.as_dict()
    cluster_report.pop("nodes")
    assert cluster_report == served.report.as_dict()
