module Id = Past_id.Id

type policy = No_cache | Lru | Gds

let policy_name = function No_cache -> "none" | Lru -> "LRU" | Gds -> "GD-S"

type entry = {
  cert : Certificate.file;
  data : string;
  mutable weight : float; (* GDS: H value; LRU: last-use tick *)
}

type t = {
  policy : policy;
  mutable budget : int;
  mutable used : int;
  entries : entry Id.Table.t;
  mutable inflation : float; (* GDS L *)
  mutable tick : int; (* LRU clock *)
}

let create policy =
  {
    policy;
    budget = 0;
    used = 0;
    entries = Id.Table.create 64;
    inflation = 0.0;
    tick = 0;
  }

let used t = t.used
let entry_count t = Id.Table.length t.entries

let drop t file_id =
  match Id.Table.find_opt t.entries file_id with
  | None -> ()
  | Some e ->
    Id.Table.remove t.entries file_id;
    t.used <- t.used - e.cert.Certificate.size

let remove = drop

(* Victim with the smallest weight: lowest H for GDS, least recent for
   LRU. Linear scan; caches hold at most a few thousand entries. *)
let victim t =
  Id.Table.fold
    (fun id e acc ->
      match acc with
      | Some (_, best) when best.weight <= e.weight -> acc
      | _ -> Some (id, e))
    t.entries None

let rec evict_until t target =
  if t.used > target then begin
    match victim t with
    | None -> ()
    | Some (id, e) ->
      if t.policy = Gds then t.inflation <- e.weight;
      drop t id;
      evict_until t target
  end

let set_budget t budget =
  t.budget <- Stdlib.max 0 budget;
  evict_until t t.budget

let fresh_weight t size =
  match t.policy with
  | No_cache -> 0.0
  | Lru ->
    t.tick <- t.tick + 1;
    float_of_int t.tick
  | Gds -> t.inflation +. (1.0 /. float_of_int (Stdlib.max 1 size))

let find t file_id =
  match Id.Table.find_opt t.entries file_id with
  | None -> None
  | Some e ->
    e.weight <- fresh_weight t e.cert.Certificate.size;
    Some (e.cert, e.data)

let mem t file_id = Id.Table.mem t.entries file_id

let offer t ~cert ~data =
  match t.policy with
  | No_cache -> false
  | Lru | Gds ->
    let size = cert.Certificate.size in
    let file_id = cert.Certificate.file_id in
    if size > t.budget then false
    else if Id.Table.mem t.entries file_id then true
    else begin
      (* Admit, then evict lowest-weight entries to fit; the newcomer
         itself may be the first victim (classic GreedyDual-Size). *)
      Id.Table.replace t.entries file_id { cert; data; weight = fresh_weight t size };
      t.used <- t.used + size;
      evict_until t t.budget;
      Id.Table.mem t.entries file_id
    end
