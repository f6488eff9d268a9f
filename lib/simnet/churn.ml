(* Declarative churn & fault-injection engine on top of [Net].

   A [plan] is a time-ordered list of fault actions. [apply] schedules
   the whole plan as ownerless network thunks, so faults fire while the
   simulation runs — interleaved with protocol traffic — instead of
   being injected by ad-hoc experiment code between [Net.run] calls. A
   crash or recovery only flips the node's liveness flag: the layers
   above react through their [Net.on_liveness] observers. *)

module Rng = Past_stdext.Rng
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter

type action =
  | Crash of Net.addr  (** silent departure: down, no goodbye traffic *)
  | Recover of Net.addr  (** rejoin with previous state *)
  | Partition of Net.addr list list
  | Heal
  | Set_link of {
      link_src : Net.addr;
      link_dst : Net.addr;
      loss : float option;
      delay_factor : float;
      extra_delay : float;
    }
  | Clear_link of { link_src : Net.addr; link_dst : Net.addr }
  | Set_loss of float
  | Set_duplication of float
  | Set_reorder of { rate : float; max_extra_delay : float }
  | Exec of (unit -> unit)  (** escape hatch for domain-specific faults *)

type event = { at : float; action : action }

type plan = event list

let plan events =
  let events = List.map (fun (at, action) -> { at; action }) events in
  List.iter
    (fun e ->
      if e.at < 0.0 then invalid_arg (Printf.sprintf "Churn.plan: negative time %g" e.at))
    events;
  List.stable_sort (fun a b -> Float.compare a.at b.at) events

let execute net c_crash c_recover = function
  | Crash a ->
    if Net.alive net a then begin
      Net.set_alive net a false;
      Counter.incr c_crash
    end
  | Recover a ->
    if not (Net.alive net a) then begin
      Net.set_alive net a true;
      Counter.incr c_recover
    end
  | Partition groups -> Net.partition net groups
  | Heal -> Net.heal_partition net
  | Set_link { link_src; link_dst; loss; delay_factor; extra_delay } ->
    Net.set_link net ~src:link_src ~dst:link_dst ?loss ~delay_factor ~extra_delay ()
  | Clear_link { link_src; link_dst } -> Net.clear_link net ~src:link_src ~dst:link_dst
  | Set_loss rate -> Net.set_loss_rate net rate
  | Set_duplication rate -> Net.set_duplication_rate net rate
  | Set_reorder { rate; max_extra_delay } -> Net.set_reorder net ~rate ~max_extra_delay
  | Exec f -> f ()

let counters net =
  let reg = Net.registry net in
  ( Registry.counter reg "churn.crashes",
    Registry.counter reg "churn.recoveries" )

let apply net plan =
  let now = Net.now net in
  let c_crash, c_recover = counters net in
  List.iter
    (fun { at; action } ->
      (* Fault timers deliberately have no owner: the fault schedule is
         the environment, not a node, and must fire regardless of who
         is alive. *)
      Net.schedule net
        ~delay:(Stdlib.max 0.0 (at -. now))
        (fun () -> execute net c_crash c_recover action))
    plan

let crashes net = Counter.value (fst (counters net))
let recoveries net = Counter.value (snd (counters net))

(* --- sustained churn generator ----------------------------------------- *)

(* A Poisson process of crashes at [rate] events per time unit; each
   victim recovers after an exponential downtime with mean
   [mean_downtime]. The generator tracks projected liveness so it never
   schedules a crash that would leave fewer than [min_live] nodes up —
   such arrivals are skipped, keeping the process honest about the
   effective rate rather than queueing kills. *)
let sustained ~rng ~addrs ~rate ~mean_downtime ~horizon ~min_live =
  let positive name v =
    if not (v > 0.0) then
      invalid_arg (Printf.sprintf "Churn.sustained: %s must be positive (got %g)" name v)
  in
  positive "rate" rate;
  positive "mean_downtime" mean_downtime;
  positive "horizon" horizon;
  let n = Array.length addrs in
  if n = 0 then invalid_arg "Churn.sustained: no addresses";
  (* Live addresses, swap-removed on crash for O(1) victim draws. *)
  let live = Array.copy addrs in
  let live_count = ref n in
  let pending = ref [] (* (recovery_time, addr), few in flight *) in
  let events = ref [] in
  let clock = ref 0.0 in
  let exponential mean = -.mean *. log (1.0 -. Rng.float rng 1.0) in
  let recover_due until =
    let due, later = List.partition (fun (at, _) -> at <= until) !pending in
    pending := later;
    List.iter
      (fun (at, a) ->
        events := { at; action = Recover a } :: !events;
        live.(!live_count) <- a;
        incr live_count)
      (List.sort (fun (a, _) (b, _) -> Float.compare a b) due)
  in
  let continue = ref true in
  while !continue do
    clock := !clock +. exponential (1.0 /. rate);
    if !clock >= horizon then continue := false
    else begin
      recover_due !clock;
      if !live_count > min_live then begin
        let i = Rng.int rng !live_count in
        let victim = live.(i) in
        decr live_count;
        live.(i) <- live.(!live_count);
        events := { at = !clock; action = Crash victim } :: !events;
        pending := (!clock +. exponential mean_downtime, victim) :: !pending
      end
    end
  done;
  (* Everyone scheduled to recover eventually does, so a run can
     quiesce to a fully-live network after the horizon. *)
  List.iter (fun (at, a) -> events := { at; action = Recover a } :: !events) !pending;
  List.stable_sort (fun a b -> Float.compare a.at b.at) (List.rev !events)
