(** Declarative churn & fault-injection engine.

    Failure machinery used to live as ad-hoc code inside individual
    experiments; this module centralizes it. A {!plan} is a
    time-ordered fault schedule — crashes, silent departures, rejoins,
    partitions, per-link loss/delay asymmetry, duplication and
    reordering knobs — and {!apply} arms it on a {!Net.t} so the faults
    fire interleaved with protocol traffic as the simulation runs.

    Determinism: plans are data, generated from an explicit RNG, and
    the network draws all fault coins from its dedicated fault stream —
    a faulty run and its fault-free baseline consume the main RNG
    stream identically (see {!Net.create}). *)

type action =
  | Crash of Net.addr
      (** Take the node down — a silent departure: it stops receiving,
          its owned timers stop firing, and (new in this engine) any
          send it attempts mid-cascade is suppressed. *)
  | Recover of Net.addr
      (** Bring the node back with its previous state; [on_recover]
          lets the overlay/storage layers run their rejoin protocol. *)
  | Partition of Net.addr list list
      (** Split the network into the listed groups (unlisted nodes form
          the remaining side); cross-side messages are dropped. *)
  | Heal  (** Remove the partition. *)
  | Set_link of {
      link_src : Net.addr;
      link_dst : Net.addr;
      loss : float option;
      delay_factor : float;
      extra_delay : float;
    }  (** Directional per-link override (see {!Net.set_link}). *)
  | Clear_link of { link_src : Net.addr; link_dst : Net.addr }
  | Set_loss of float  (** Replace the global loss rate, in [[0,1]]. *)
  | Set_duplication of float
  | Set_reorder of { rate : float; max_extra_delay : float }
  | Exec of (unit -> unit)
      (** Escape hatch for domain-specific faults (e.g. corrupt a
          store, flip a node malicious). *)

type event = { at : float; action : action }

type plan = event list

val plan : (float * action) list -> plan
(** Sort a schedule by time. Raises [Invalid_argument] naming the first
    negative time. *)

type hooks = { on_crash : Net.addr -> unit; on_recover : Net.addr -> unit }
(** Layer callbacks: [on_crash] fires after the node is marked down,
    [on_recover] after it is marked up — wire Pastry's [recover] and
    PAST's re-replication kick here. *)

val no_hooks : hooks

val apply : ?hooks:hooks -> 'msg Net.t -> plan -> unit
(** Schedule every event of the plan on the network (events whose time
    is already past fire immediately on the next step). Crashing an
    already-down node or recovering an already-up one is a no-op, so
    overlapping plans compose. Crash/recovery totals are counted in the
    network registry's [churn.crashes] / [churn.recoveries]. *)

val crashes : _ Net.t -> int
val recoveries : _ Net.t -> int

val sustained :
  rng:Past_stdext.Rng.t ->
  addrs:Net.addr array ->
  rate:float ->
  mean_downtime:float ->
  horizon:float ->
  min_live:int ->
  plan
(** A sustained join/leave process: crashes arrive as a Poisson stream
    at [rate] events per time unit; each victim rejoins after an
    exponential downtime with mean [mean_downtime]. Crashes that would
    leave fewer than [min_live] nodes up are skipped. Every victim's
    recovery is included in the plan (possibly after [horizon]), so the
    network eventually returns to fully live. Raises [Invalid_argument]
    naming the value when [rate], [mean_downtime] or [horizon] is not
    positive. *)
