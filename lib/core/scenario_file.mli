(** Scenario description files.

    A small line-oriented format so experiments can be run from the CLI
    without recompiling:

    {v
    # two-domain quick look
    seed        7
    topology    random        # or: figure1
    domains     16
    providers   4
    borders     2
    hosts       4
    cp          pce           # pull-drop | pull-queue | pull-detour |
                              # cons | msmr | nerd | pce
    mapping-ttl 60
    flows       500
    rate        50
    zipf        0.9
    data-packets 8
    data-bytes  1200
    hotspot     0             # optional: aim all traffic at one domain
    v}

    Control-plane faults ([cp-loss], [cp-jitter], [cp-rto],
    [cp-backoff], [cp-retries], [cp-flap], [cp-partition]) and node
    failures ([pce-crash-at <domain> <t>], [pce-recover-at <domain>
    <t>], [pce-watchdog <s>]) are documented in [doc/protocol.md]; a
    crash with no matching recovery means the PCE never restarts, and
    windows must close after they open.

    Adversarial injection ([attack-spoof <p>], [attack-spoof-head-start
    <s>], [attack-replay <p>], [attack-dns-poison <p>], [attack-flood
    <rate> <eids> <from> <until> <victim-domain>]) and countermeasures
    ([auth-nonce on|off], [auth-sig on|off], [auth-sig-cpu <s>],
    [auth-dnssec on|off], [glean-cap <n>]) are documented in
    [doc/security.md]; without any attack-*/auth-* key the run is
    byte-identical to pre-adversary builds.

    Unknown keys, malformed values and out-of-range numbers are
    reported with their line number.  Omitted keys take the defaults
    above ({!default}). *)

type workload = {
  flows : int;
  rate : float;
  zipf_alpha : float;
  data_packets : int;
  data_bytes : int;
  hotspot : int option;
}

type t = { config : Scenario.config; workload : workload }

val default : t

val cp_of_string : string -> Scenario.cp_kind option
(** The control plane a [cp] value names ([pce], [pull-drop],
    [pull-queue], [pull-smr], [pull-detour], [cons], [msmr], [nerd]);
    [None] for any other string. *)

val parse : string -> (t, string) result
(** Parse file contents. *)

val load : string -> (t, string) result
(** Read and parse a file; IO errors become [Error]. *)
