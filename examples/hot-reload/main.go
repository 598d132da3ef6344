// The hot-reload example demonstrates §7's dynamic loading: the
// reaction body is swapped at runtime, twice, from one embedded C-like
// body to the next, without stopping the agent or disturbing the data
// plane. This mirrors the original's signal-triggered unload/relink of
// reaction .so files.
//
// The reloaded bodies also update a malleable table the way the paper's
// C-like bodies do: each iteration deletes the entry the body pinned last
// time and adds a fresh one stamped with the time, through the generated
// library calls (hosts.delEntry, hosts.addEntry, now()), and the example
// checks what is left in the table at the end.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/rmt"
	"repro/internal/sim"
)

const program = `
header_type h_t { fields { x : 16; y : 16; } }
header h_t hdr;
malleable value mode { width : 16; init : 0; }
action tag() { modify_field(hdr.x, ${mode}); }
table t { actions { tag; } default_action : tag; size : 1; }
action stamp(v) { modify_field(hdr.y, v); }
malleable table hosts {
  reads { hdr.x : exact; }
  actions { stamp; }
  size : 8;
}
reaction policy() {
  // v1: a constant policy.
  ${mode} = 100;
}
control ingress { apply(t); apply(hosts); }
`

// pinV2 is the reloaded C-like body. Its mode is 100 per group of 16
// switch ports (200 on the default 32-port switch), and it keeps one
// entry, keyed 2, in hosts. Statics persist across iterations of one
// loaded body.
const pinV2 = `
static unsigned int pinned = 0;
int groups = 0;
int ports = port_count();
while (ports > 0) {
  groups++;
  ports -= 16;
}
${mode} = 100 * groups;
if (pinned != 0) {
  hosts.delEntry(pinned);
}
pinned = hosts.addEntry(2, "stamp", now() % 65536);
`

// pinV3 steps the mode through 300-309. pinV2's statics went with it, so
// its last entry stays and this body pins its own, keyed 3.
const pinV3 = `
static unsigned int pinned = 0;
if (pinned != 0) {
  hosts.delEntry(pinned);
}
pinned = hosts.addEntry(3, "stamp", now() % 65536);
${mode} = 300 + (${mode} + 1) % 10;
`

func main() {
	plan, err := compiler.CompileSource(program, compiler.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	agent := core.NewAgent(s, drv, plan, core.Options{})
	agent.Start()

	report := func(label string) {
		v, _ := agent.Mbl("mode")
		st := agent.Stats()
		fmt.Printf("t=%-8v %-22s mode=%d (iterations so far: %d)\n", s.Now(), label, v, st.Iterations)
	}

	s.RunFor(100 * time.Microsecond)
	report("v1 (compiled body)")

	// Hot-swap to a new body — the agent keeps looping.
	if err := agent.SwapReaction("policy", pinV2); err != nil {
		log.Fatal(err)
	}
	s.RunFor(100 * time.Microsecond)
	report("v2 (reloaded body)")

	if err := agent.SwapReaction("policy", pinV3); err != nil {
		log.Fatal(err)
	}
	s.RunFor(100 * time.Microsecond)
	report("v3 (reloaded body)")

	agent.Stop()
	s.Run()
	if err := agent.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("agent ran continuously across both reloads")

	// Each reloaded body replaced its pinned entry every iteration, so
	// hosts holds one entry per body: a leftover add or a failed delete
	// would show here as a second entry with the same key.
	hosts, err := agent.Table("hosts")
	if err != nil {
		log.Fatal(err)
	}
	entries := hosts.Entries()
	for _, e := range entries {
		fmt.Printf("hosts: key %d stamped %d\n", e.Keys[0].Value, e.Data[0])
	}
	if len(entries) != 2 || entries[0].Keys[0].Value != 2 || entries[1].Keys[0].Value != 3 {
		log.Fatalf("hosts holds %d entries, want one keyed 2 and one keyed 3", len(entries))
	}
}
