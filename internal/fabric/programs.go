package fabric

// Reference P4R programs for the fabric's two switch roles. The leaf
// program is the Fig. 15 DoS program plus a coordinator-owned upstream
// filter table; the spine program carries the same filter plus routing.
//
// Both declare identical headers in identical order. That is load-
// bearing: a packet's field vector is laid out by the schema of the
// program that created it, and the same packet crosses several
// switches, so every program in one fabric must resolve a field name
// to the same slot. Build verifies this and refuses mismatched
// schemas.
//
// Table-name contract with the fabric layer (see fabric.go consts):
// "route"/"route_pkt" for destination routing, installed by each
// node's prologue, and "ufilter"/"drop_pkt" for the coordinator's
// network-wide source filter. The filter is deliberately a plain (non-
// malleable) table: the local agent owns the malleable tables and
// their version bits, while ufilter has exactly one writer — the
// coordinator's session — so the two control paths never contend for
// the same versioned state.

// LeafP4R is the edge-switch program: upstream filter, local malleable
// blocklist, destination routing, per-sender byte counting, the
// DoS-detection reaction of use case #1, and the use case #2 per-uplink
// heartbeat counter feeding the gray-failure reaction, whose
// gray.suspect / gray.clear events the coordinator reroutes on. hb_tbl applies
// first so probe traffic is counted and absorbed before it can touch
// the filter or byte-counting stats.
const LeafP4R = `
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; }
}
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;

register total_bytes { width : 64; instance_count : 1; }
register hb_count { width : 32; instance_count : 32; }

action allow() { no_op(); }
action drop_pkt() { drop(); }
action route_pkt(port) {
  modify_field(standard_metadata.egress_spec, port);
}
action note() {
  register_increment(total_bytes, 0, standard_metadata.packet_length);
}
action count_hb() {
  register_increment(hb_count, standard_metadata.ingress_port, 1);
  drop();
}

table hb_tbl {
  reads { ipv4.protocol : exact; }
  actions { count_hb; }
  size : 2;
}
table ufilter {
  reads { ipv4.srcAddr : exact; }
  actions { allow; drop_pkt; }
  default_action : allow;
  size : 256;
}
malleable table blocklist {
  reads { ipv4.srcAddr : exact; }
  actions { allow; drop_pkt; }
  default_action : allow;
  size : 256;
}
table route {
  reads { ipv4.dstAddr : exact; }
  actions { route_pkt; drop_pkt; }
  default_action : drop_pkt;
  size : 64;
}
table counter_tbl {
  actions { note; }
  default_action : note;
  size : 1;
}

reaction dos_react(ing ipv4.srcAddr, reg total_bytes) {
  // Use case #1 as in usecases.DosP4R, with a 200 us estimate window:
  // every leaf's benign flows funnel through the victim leaf, so early
  // small-denominator estimates are noisier here.
  static int sender[256];
  static int first[256];
  static int bytes[256];
  static int blocked[256];
  static int last_total = 0;
  int delta = total_bytes[0] - last_total;
  last_total = total_bytes[0];
  if (delta == 0 || ipv4_srcAddr == 0) return;
  int i = ipv4_srcAddr % 256;
  for (int n = 0; n < 256 && sender[i] != ipv4_srcAddr && sender[i] != 0; n++) i = (i + 1) % 256;
  if (sender[i] != ipv4_srcAddr) {
    if (sender[i] != 0) return; // table full: the sender goes unestimated
    sender[i] = ipv4_srcAddr;
    first[i] = now();
  }
  bytes[i] += delta;
  emit("hh.estimate", ipv4_srcAddr, bytes[i]);
  if (blocked[i]) return;
  // 1 Gbps is 1 bit/ns: rate >= threshold iff bytes*8 >= dur in ns.
  int dur = now() - first[i];
  if (dur < 200000 || bytes[i] * 8 < dur) return;
  blocklist.addEntry(ipv4_srcAddr, "drop_pkt");
  blocked[i] = 1;
  emit("dos.block", ipv4_srcAddr, bytes[i] * 8 / dur * 1000000000 + bytes[i] * 8 % dur * 1000000000 / dur);
}

reaction gray_react(reg hb_count) {
  // Use case #2 per uplink. Spines send a probe down every trunk each
  // T_s = 500 ns; the uplinks are ports first_uplink..last_uplink (Build
  // writes its fabric's), and one is judged once it has delivered a
  // probe. A window of T_d delivering fewer than floor(0.75*T_d/T_s)
  // probes strikes the port; two strikes in a row latch it
  // (gray.suspect). A latched port heals (gray.clear) after three windows
  // in a row that deliver floor(0.99*T_d/T_s) or more: a 30% gray link
  // clears a symmetric bar often enough to flap. A window the control
  // channel stretched says nothing about the link and is skipped.
  int first_uplink = 4, last_uplink = 5;
  static int last_poll = 0;
  static int last[32];
  static int state[32]; // 0: silent so far, 1: judged, 2: latched
  static int run[32];   // strikes in a row, or clean windows while latched
  int t = now();
  if (last_poll == 0) {
    last_poll = t;
    for (int p = first_uplink; p <= last_uplink; p++) last[p] = hb_count[p];
    return;
  }
  int expected = 75 * (t - last_poll) / (100 * 500);
  int heal_expected = 99 * (t - last_poll) / (100 * 500);
  last_poll = t;
  int clean = channel_clean();
  for (int p = first_uplink; p <= last_uplink; p++) {
    int got = hb_count[p] - last[p];
    last[p] = hb_count[p];
    if (got > 0 && state[p] == 0) state[p] = 1;
    if (!clean || state[p] == 0) continue;
    if (state[p] == 2) {
      if (got >= heal_expected && heal_expected > 0) run[p]++;
      else run[p] = 0;
      if (run[p] < 3) continue;
      state[p] = 1;
      run[p] = 0;
      emit("gray.clear", p, got);
    } else {
      if (got < expected) run[p]++;
      else run[p] = 0;
      if (run[p] < 2) continue;
      state[p] = 2;
      run[p] = 0;
      emit("gray.suspect", p, got);
    }
  }
}

control ingress {
  apply(hb_tbl);
  apply(ufilter);
  apply(blocklist);
  apply(route);
  apply(counter_tbl);
}
`

// leafUplinks is the line of LeafP4R's gray_react that names the
// uplinks; as written it fits the default four host ports and two
// spines, and Build writes each fabric's own.
const leafUplinks = "int first_uplink = 4, last_uplink = 5;"

// SpineP4R is the aggregation-switch program: the coordinator's
// upstream filter ahead of routing, plus a liveness reaction that
// bumps a malleable generation counter so spine agents exercise the
// full dialogue/commit path too.
const SpineP4R = `
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; }
}
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; ack : 32; isAck : 1; } }
header tcp_t tcp;

malleable value spine_gen { width : 32; init : 0; }

action allow() { no_op(); }
action drop_pkt() { drop(); }
action route_pkt(port) {
  modify_field(standard_metadata.egress_spec, port);
}

table ufilter {
  reads { ipv4.srcAddr : exact; }
  actions { allow; drop_pkt; }
  default_action : allow;
  size : 256;
}
table route {
  reads { ipv4.dstAddr : exact; }
  actions { route_pkt; drop_pkt; }
  default_action : drop_pkt;
  size : 64;
}

reaction spine_watch() {
  ${spine_gen} = ${spine_gen} + 1;
}

control ingress {
  apply(ufilter);
  apply(route);
}
`
