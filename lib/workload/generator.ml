module Rng = Past_stdext.Rng
module Dist = Past_stdext.Dist

type op =
  | Insert of { name : string; size : int }
  | Lookup of { catalog_index : int }
  | Reclaim of { catalog_index : int }

type event = { at : float; op : op }

type profile = {
  insert_weight : float;
  lookup_weight : float;
  reclaim_weight : float;
  sizes : Sizes.t;
  ops_per_time_unit : float;
}

let default_profile =
  {
    insert_weight = 0.20;
    lookup_weight = 0.75;
    reclaim_weight = 0.05;
    sizes = Sizes.web_proxy ();
    ops_per_time_unit = 1.0;
  }

let schedule profile ~rng ~horizon =
  if horizon <= 0.0 then invalid_arg "Generator.schedule: horizon must be positive";
  let total_w = profile.insert_weight +. profile.lookup_weight +. profile.reclaim_weight in
  if total_w <= 0.0 then invalid_arg "Generator.schedule: weights must be positive";
  let clock = ref 0.0 in
  let catalog_size = ref 0 in
  let seq = ref 0 in
  let events = ref [] in
  let continue = ref true in
  while !continue do
    clock := !clock +. Dist.exponential rng ~rate:profile.ops_per_time_unit;
    if !clock >= horizon then continue := false
    else begin
      let u = Rng.float rng total_w in
      let op =
        if u < profile.insert_weight || !catalog_size = 0 then begin
          incr seq;
          incr catalog_size;
          Insert
            { name = Printf.sprintf "wl-%d" !seq; size = Sizes.draw profile.sizes rng }
        end
        else begin
          (* Zipf over the current catalog: rank 1 = first (oldest,
             most popular) insert. A fresh sampler per draw would be
             O(catalog); instead use the inverse-power trick, which is
             a close approximation for s around 1. *)
          let n = !catalog_size in
          let rank =
            let u = Rng.float rng 1.0 in
            let r = int_of_float (float_of_int n ** u) in
            Stdlib.max 1 (Stdlib.min n r)
          in
          if u < profile.insert_weight +. profile.lookup_weight then
            Lookup { catalog_index = rank - 1 }
          else Reclaim { catalog_index = rank - 1 }
        end
      in
      events := { at = !clock; op } :: !events
    end
  done;
  List.rev !events
