"""A sweep does the work that its scenarios share once, counted, not timed.

One ``dense_grid`` sweep of 36 scenarios, from cold campaign caches:

- splits the root seed once for the whole campaign;
- builds one ``ChannelParams`` and one ``PowerModel``, which every
  scenario of the file shares;
- takes the statistic of each SA initial-access batch's ``t_total_ms``
  once, as SA recovery is that batch.
"""
from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from nrbeamsim import evaluation
from nrbeamsim.cli import EXIT_OK, main
from nrbeamsim.codebook import PowerModel
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import DeploymentMode

DENSE_GRID = Path(__file__).resolve().parents[1] / "nrbench" / "workloads" / "dense_grid.yaml"


def test_one_sweep_does_its_shared_work_once(monkeypatch, capsys):
    seen: Counter = Counter()

    class SeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            seen["spawn"] += 1
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", SeedSequence)
    for cls in (ChannelParams, PowerModel):

        def post_init(self, check=cls.__post_init__, name=cls.__name__):
            seen[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", post_init)

    # the SA batches, and each array that a statistic is taken of
    sa_batches = []
    stat_inputs = []
    simulate_ia_batch = evaluation.simulate_ia_batch
    stat_from_samples = evaluation.stat_from_samples

    def ia_batch(sc, *args):
        batch = simulate_ia_batch(sc, *args)
        if sc.mode is DeploymentMode.SA:
            sa_batches.append(batch)
        return batch

    def stat(x):
        stat_inputs.append(x)
        return stat_from_samples(x)

    monkeypatch.setattr(evaluation, "simulate_ia_batch", ia_batch)
    monkeypatch.setattr(evaluation, "stat_from_samples", stat)
    # the campaign caches start cold, as in a fresh process
    for f in vars(evaluation).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()

    assert main(["sweep", str(DENSE_GRID)]) == EXIT_OK
    assert capsys.readouterr().out.count(": t_ia_ms = ") == 36
    assert seen["spawn"] == 1
    assert seen["ChannelParams"] == 1
    assert seen["PowerModel"] == 1
    assert len(sa_batches) == 18
    stats_of = [sum(x is b.t_total_ms for x in stat_inputs) for b in sa_batches]
    assert stats_of == [1] * 18
