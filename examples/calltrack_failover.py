"""The paper's §4 demonstration, end to end.

Reconstructs Figure 3 (three PCs on an Ethernet: primary, backup,
test/interface) and Table 1 (OFTT engines + the Call Track application on
the pair; System Monitor, Telephone System Simulator and Calling History
generator on the test PC), then demonstrates continued operation through
all four §4 failures:

    a. node failure          b. NT crash (bluescreen)
    c. application failure   d. OFTT middleware failure

After each fault the failed element is repaired and the pair re-forms, as
in the live demo.  The busy-line histogram — the application's GUI — is
printed before and after, along with the System Monitor display.

Run:  python examples/calltrack_failover.py
"""

from repro.faults import AppCrash, BlueScreen, MiddlewareCrash, NodeFailure
from repro.faults.campaign import Campaign
from repro.harness.scenario import build_demo


def main() -> None:
    demo = build_demo(seed=2000)
    demo.start()
    print("Demonstration configuration up:")
    print(f"  pair: {demo.pair.node_names}, primary={demo.pair.primary_node()}")
    print(f"  test-pc: monitor + telephone simulator (5 lines, 10 callers)\n")

    demo.run_for(30_000.0)
    app = demo.primary_app()
    print(app.render_histogram())
    print()

    campaign = Campaign(demo.kernel, demo, settle_timeout=30_000.0)
    demo_faults = [
        ("a", "node failure", lambda node: NodeFailure(node)),
        ("b", "NT crash (bluescreen)", lambda node: BlueScreen(node)),
        ("c", "application failure", lambda node: AppCrash(node, "calltrack")),
        ("d", "OFTT middleware failure", lambda node: MiddlewareCrash(node)),
    ]

    for demo_id, label, make_fault in demo_faults:
        primary = demo.pair.primary_node()
        generated_before = demo.history.event_count
        print(f"--- demo ({demo_id}): {label} on {primary} ---")
        record = campaign.run_fault(make_fault(primary))
        survivor = demo.pair.primary_node()
        print(
            f"    continued operation: {record.recovered}"
            f"  (recovery {record.recovery_latency:.0f} ms,"
            f" {'switched to ' + survivor if record.switched_over else 'recovered in place'})"
        )
        # Repair before the next case.
        campaign.repair(primary)
        demo.run_for(10_000.0)
        app = demo.primary_app()
        lost = demo.history.event_count - app.events_processed()
        print(f"    telephone events: generated={demo.history.event_count}, "
              f"tracked={app.events_processed()}, lost={lost}\n")

    print("Final histogram (survived four failures):")
    print(demo.primary_app().render_histogram())
    print()
    print(demo.monitor.render())


if __name__ == "__main__":
    main()
