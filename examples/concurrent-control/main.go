// The concurrent-control example runs three kinds of control-plane
// clients against one switch through the ctlplane service — the
// multi-tenant wiring a production switch daemon would use:
//
//   - a PRIMARY session: the Mantis agent, whose reaction tags packets
//     with the port currently holding the deepest queue. Its dialogue
//     ops ride the high-priority class.
//   - two LEGACY sessions: bulk writers (think BGP daemons) churning
//     entries of a conventional forwarding table. They share the bulk
//     class round-robin and never delay a dialogue op by more than the
//     one operation already occupying the channel.
//   - an OBSERVER session: a read-only monitor that tails live register
//     state and session statistics; any write it attempts is refused.
//
// The run also demonstrates arbitration: halfway in, a would-be
// controller with a lower election id fails to take over; once the agent
// closes its session at the end, the same controller may.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/rmt"
	"repro/internal/sim"
)

const program = `
header_type h_t { fields { tag : 16; port : 8; dst : 16; } }
header h_t hdr;

register qdepths { width : 32; instance_count : 16; }

malleable value value_var { width : 16; init : 0; }

action observe() {
  register_write(qdepths, hdr.port, standard_metadata.packet_length);
  modify_field(hdr.tag, ${value_var});
}
table t { actions { observe; } default_action : observe; size : 1; }

// A conventional forwarding table owned by the legacy writers.
action fwd(port) { modify_field(standard_metadata.egress_spec, port); }
table routes { reads { hdr.dst : exact; } actions { fwd; } size : 64; }

reaction my_reaction(reg qdepths) {
  uint16_t current_max = 0;
  uint16_t max_port = 0;
  for (int i = 0; i < 16; ++i) {
    if (qdepths[i] > current_max) {
      current_max = qdepths[i];
      max_port = i;
    }
  }
  ${value_var} = max_port;
}

control ingress { apply(t); apply(routes); }
`

func main() {
	plan, err := compiler.CompileSource(program, compiler.DefaultOptions())
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		log.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	svc := ctlplane.New(s, drv, ctlplane.Options{})

	// The Mantis agent holds the primary session (election id 10).
	agent, primary, err := core.NewSessionAgent(s, svc, 10, plan, core.Options{})
	if err != nil {
		log.Fatalf("agent session: %v", err)
	}
	agent.Start()

	// Two legacy writers churn the routes table through bulk sessions.
	for c := 0; c < 2; c++ {
		c := c
		sess, err := svc.Open(ctlplane.SessionOptions{
			Name: fmt.Sprintf("bgp%d", c), Role: ctlplane.RoleLegacy,
		})
		if err != nil {
			log.Fatalf("legacy session: %v", err)
		}
		s.Spawn(sess.Name(), func(p *sim.Proc) {
			h, err := sess.AddEntry(p, "routes", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(uint64(c))}, Action: "fwd", Data: []uint64{uint64(c)},
			})
			if err != nil {
				log.Fatalf("%s add: %v", sess.Name(), err)
			}
			for i := 0; ; i++ {
				p.Sleep(3 * time.Microsecond)
				if err := sess.ModifyEntry(p, "routes", h, "fwd", []uint64{uint64(i % 16)}); err != nil {
					log.Fatalf("%s modify: %v", sess.Name(), err)
				}
			}
		})
	}

	// The observer tails live state on a read-only session.
	obs, err := svc.Open(ctlplane.SessionOptions{Name: "monitor"})
	if err != nil {
		log.Fatalf("observer session: %v", err)
	}
	s.Spawn("monitor", func(p *sim.Proc) {
		for {
			p.Sleep(250 * time.Microsecond)
			vals, err := obs.BatchRead(p, []driver.ReadReq{{Reg: "qdepths", Lo: 0, Hi: 16}})
			if err != nil {
				log.Fatalf("monitor read: %v", err)
			}
			max, arg := uint64(0), 0
			for i, v := range vals[0] {
				if v > max {
					max, arg = v, i
				}
			}
			ast := agent.Stats()
			fmt.Printf("[%8v] monitor: deepest queue port %2d (%4d B); dialogue %4d iterations; bulk ops %d\n",
				p.Now(), arg, max, ast.Iterations, svc.Stats().BulkOps)
			// Observers cannot write — the service refuses, the switch
			// never sees it.
			if err := obs.RegWrite(p, "qdepths", 0, 0); !errors.Is(err, ctlplane.ErrReadOnly) {
				log.Fatalf("observer write was not refused: %v", err)
			}
		}
	})

	// Halfway in, a rival controller tries to grab primacy with a LOWER
	// election id and is turned away.
	s.Schedule(1*sim.Millisecond, func() {
		_, err := svc.Open(ctlplane.SessionOptions{Name: "rival", Role: ctlplane.RolePrimary, ElectionID: 3})
		fmt.Printf("[%8v] rival controller (election id 3 < 10): %v\n", s.Now(), err)
	})

	// Background traffic so the reaction has queues to observe.
	rng := s.Rand()
	s.Every(2*time.Microsecond, func() {
		pkt := plan.Prog.Schema.New()
		pkt.Size = 64 + rng.Intn(1400)
		pkt.SetName("hdr.port", uint64(rng.Intn(16)))
		pkt.SetName("hdr.dst", uint64(rng.Intn(2)))
		sw.Inject(rng.Intn(sw.Config().NumPorts), pkt)
	})

	s.RunFor(2 * time.Millisecond)
	agent.Stop()
	s.RunFor(100 * time.Microsecond)
	if err := agent.Err(); err != nil {
		log.Fatalf("agent: %v", err)
	}

	fmt.Println()
	cst := svc.Stats()
	fmt.Printf("ctlplane: %d dialogue ops, %d bulk ops, %d rejections, %d demotions\n",
		cst.DialogueOps, cst.BulkOps, cst.Rejections, cst.Demotions)
	for _, sess := range svc.Sessions() {
		st := sess.SessionStats()
		fmt.Printf("  %-12s %s/%s: %d completed, %d failed, max wait %v\n",
			sess.Name(), sess.Role(), sess.Class(), st.Completed, st.Failed, st.MaxWait)
	}

	// A closed primary relinquishes primacy: the rival's lower election
	// id no longer matters.
	primary.Close()
	rival, err := svc.Open(ctlplane.SessionOptions{Name: "rival", Role: ctlplane.RolePrimary, ElectionID: 3})
	if err != nil || svc.Primary() != rival {
		log.Fatalf("rival after the agent closed its session: %v", err)
	}
	fmt.Printf("\nagent session closed; rival controller (election id 3) is now primary\n")
}
