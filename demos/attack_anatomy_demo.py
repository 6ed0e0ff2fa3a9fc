"""Dissect one seeded run: where phantoms go and what they do to queues.

Demonstrates:
- planning a coordinated phantom-injection campaign from measured flows
- the intermittent on/off injection pattern
- the physics/perception firewall: under schedule-driven control the
  attack changes nothing at all
- per-approach waiting times with and without the attack under adaptive
  control

Run directly: python demos/attack_anatomy_demo.py
"""

from collections import defaultdict

from sybil_atsc import (
    AttackPlan,
    SimConfig,
    World,
    build_controller,
    inject,
    max_flow,
    plan_optimal_attack,
    run,
    three_junction_reference,
)
from sybil_atsc.metrics import trip_records, trips_to_text

FIXTURE = dict(free_speed=14.0, jam_density=0.157, saturation_flow=0.54)
SEED = 4
HORIZON = 3000.0


def build_world(controller_kind, injector=None):
    net = three_junction_reference(**FIXTURE)
    cfg = SimConfig()
    return World(
        net,
        build_controller(controller_kind, net, cfg),
        seed=SEED,
        config=cfg,
        attack_injector=injector,
    )


def plan_from_warmup():
    """Measure flows over a clean warm-up, then plan the campaign."""
    world = build_world("adaptive")
    run(world, 900.0)
    flows = world.measured_flows()
    lane_ids = list(flows)
    theta = {lid: max_flow(world.lane_states[lid].lane.diagram) for lid in lane_ids}
    groups = [
        [list(ph.served_lanes) for ph in j.phase_table]
        for j in world.network.junctions
    ]
    window = AttackPlan(per_lane_rate={}, start_time=900.0, duration=HORIZON - 900.0,
                        duty_on=24.0, duty_off=6.0, total_budget=6.0)
    return plan_optimal_attack(lane_ids, theta, flows, window, focus_groups=groups)


def example_1_plan_and_pattern():
    print("\n" + "=" * 68)
    print("EXAMPLE 1: the campaign plan and its on/off injection pattern")
    print("=" * 68)
    plan = plan_from_warmup()
    print("per-lane phantom rates (veh/s), nonzero only:")
    for lid, rate in plan.per_lane_rate.items():
        if rate > 0:
            print(f"  {lid}: {rate:.3f}")
    print("\nphantom counts on one targeted lane over 40 s of the campaign:")
    target = max(plan.per_lane_rate, key=plan.per_lane_rate.get)
    ts = range(900, 940)
    counts = [inject(plan, float(t), 1.0).get(target, 0) for t in ts]
    print("  " + "".join(str(min(c, 9)) for c in counts))
    print("  (each digit is one second; bursts ramp up, then vanish entirely)")


def example_2_schedule_control_is_immune():
    print("\n" + "=" * 68)
    print("EXAMPLE 2: schedule-driven control never reads perception")
    print("=" * 68)
    plan = plan_from_warmup()
    clean = run(build_world("fixed"), HORIZON)
    attacked = run(
        build_world("fixed", injector=lambda t, dt: inject(plan, t, dt)), HORIZON
    )
    same = trips_to_text(trip_records(clean.trips)) == trips_to_text(
        trip_records(attacked.trips)
    )
    print(f"trip logs byte-identical with and without the attack: {same}")
    print("phantoms live only in perception; physics needs a corrupted")
    print("decision before a single real vehicle moves differently")


def example_3_adaptive_control_is_not():
    print("\n" + "=" * 68)
    print("EXAMPLE 3: adaptive control under the same campaign")
    print("=" * 68)
    plan = plan_from_warmup()
    results = {}
    for label, injector in [
        ("clean", None),
        ("attacked", lambda t, dt: inject(plan, t, dt)),
    ]:
        result = run(build_world("adaptive", injector=injector), HORIZON)
        by_origin = defaultdict(list)
        for veh in result.trips:
            lane = veh.id.split("#")[0]  # ids are <origin lane>#<n>
            by_origin[lane.split(":")[1]].append(veh.accumulated_wait)
        results[label] = (result, by_origin)
        mean = sum(v.accumulated_wait for v in result.trips) / len(result.trips)
        print(f"\n{label}: mean wait {mean:.1f} s over {len(result.trips)} trips")
        for direction in ("W", "E", "N", "S"):
            waits = by_origin[direction]
            print(
                f"   approach {direction}: n={len(waits):4d} "
                f"mean wait {sum(waits) / len(waits):6.1f} s"
            )
    print("\nphantom queues on the cross streets keep stealing the green;")
    print("the arterial, which carries most of the traffic, pays for it")


if __name__ == "__main__":
    example_1_plan_and_pattern()
    example_2_schedule_control_is_immune()
    example_3_adaptive_control_is_not()
