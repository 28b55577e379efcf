"""Ablation bench: the 3-of-10 usage-detection rule.

The paper chose 3-of-10 "to protect detection against accidental
operation".  Sweeping k shows the trade: k=1 detects short handling
almost always but is the most exposed to noise spikes; k=5 misses most
short uses.  k=3 keeps idle false triggers at zero while detecting the
hardest (towel-profile) step most of the time.
"""

from repro.evalx.ablations import plan_detector_sweep
from repro.evalx.parallel import run_section


def _parse(table):
    rows = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 3 and "-of-" in cells[0]:
            detection = float(cells[1].rstrip("%")) / 100
            false_per_min = float(cells[2].split("/")[0])
            rows[cells[0]] = (detection, false_per_min)
    return rows


def test_ablation_detector(benchmark):
    table = benchmark.pedantic(
        run_section,
        args=(plan_detector_sweep(ks=(1, 2, 3, 5), trials=400, seed=0),),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    rows = _parse(table)
    assert set(rows) == {"1-of-10", "2-of-10", "3-of-10", "5-of-10"}
    # Detection of short handling decreases monotonically with k.
    detections = [rows[f"{k}-of-10"][0] for k in (1, 2, 3, 5)]
    assert detections == sorted(detections, reverse=True)
    # The paper's operating point: good detection, zero idle noise.
    detection_3, false_3 = rows["3-of-10"]
    assert detection_3 >= 0.75
    assert false_3 == 0.0
    # k=5 cripples short-step detection.
    assert rows["5-of-10"][0] < 0.5
