module Id = Past_id.Id

type kind = Log_store.kind = Primary | Diverted of { on_behalf : Id.t }
type entry = Log_store.entry = { cert : Certificate.file; data : string; kind : kind }

(* Where the replicas live. [Mem]'s table is created at the log index's
   size and driven through the same replace/remove calls, so both arms
   visit ids in the same order (see {!Log_store.initial_index_size}). *)
type table = Mem of entry Id.Table.t | Log of Log_store.t

type backend = Mem | Log of { dir : string option; segment_target : int option }

(* Set once by the binary before any worker domain spawns; read-only after. *)
let process_default = ref Mem
let set_default_backend backend = process_default := backend

type event = Added of Certificate.file | Removed of Certificate.file

type t = {
  capacity : int;
  t_pri : float;
  t_div : float;
  mutable used : int;
  table : table;
  pointers : Past_pastry.Peer.t Id.Table.t;
  mutable observer : (event -> unit) option;
}

let create ~capacity ?(t_pri = 0.1) ?(t_div = 0.05) ?backend () =
  if capacity < 0 then invalid_arg "Store.create: negative capacity";
  if t_pri <= 0.0 || t_div <= 0.0 then invalid_arg "Store.create: thresholds must be positive";
  let table : table =
    match Option.value backend ~default:!process_default with
    | Mem -> Mem (Id.Table.create Log_store.initial_index_size)
    | Log { dir; segment_target } -> Log (Log_store.create ?dir ?segment_target ())
  in
  { capacity; t_pri; t_div; used = 0; table; pointers = Id.Table.create 16; observer = None }

let backend_name t = match t.table with Mem _ -> "mem" | Log _ -> "log"

let set_observer t f = t.observer <- Some f
let notify t ev = match t.observer with Some f -> f ev | None -> ()

let capacity t = t.capacity
let used t = t.used
let free t = max 0 (t.capacity - t.used)
let utilization t = if t.capacity = 0 then 1.0 else float_of_int t.used /. float_of_int t.capacity

let file_count t =
  match t.table with Mem tbl -> Id.Table.length tbl | Log ls -> Log_store.length ls

let admits t ~size ~kind =
  let threshold = match kind with `Primary -> t.t_pri | `Diverted -> t.t_div in
  size <= free t && float_of_int size <= threshold *. float_of_int (free t)

let size_of t file_id =
  match t.table with
  | Mem tbl -> Option.map (fun e -> e.cert.Certificate.size) (Id.Table.find_opt tbl file_id)
  | Log ls -> Log_store.size_of ls file_id

(* A fileId already stored is a replacement, charged its size delta
   against the free space — no threshold (replacing a replica is not a
   new replica), but capacity stays a hard bound: admitting any
   replacement unconditionally let an adversarial same-id sequence push
   [used] past [capacity]. A new id must pass [new_admitted]. Only a new
   entry is announced to the observer. *)
let insert t ~new_admitted ~cert ~data ~kind =
  let size = cert.Certificate.size in
  let old_size = size_of t cert.Certificate.file_id in
  let admitted =
    match old_size with Some old -> size - old <= free t | None -> new_admitted size
  in
  if not admitted then Error `Refused
  else begin
    (match old_size with Some old -> t.used <- t.used - old | None -> notify t (Added cert));
    let e = { cert; data; kind } in
    (match t.table with
    | Mem tbl -> Id.Table.replace tbl cert.Certificate.file_id e
    | Log ls -> Log_store.put ls e);
    t.used <- t.used + size;
    Ok ()
  end

let put t ~cert ~data ~kind =
  let admission = match kind with Primary -> `Primary | Diverted _ -> `Diverted in
  insert t ~new_admitted:(fun size -> admits t ~size ~kind:admission) ~cert ~data ~kind

let force_put t ~cert ~data ~kind =
  insert t ~new_admitted:(fun size -> size <= free t) ~cert ~data ~kind

let get t file_id =
  match t.table with Mem tbl -> Id.Table.find_opt tbl file_id | Log ls -> Log_store.get ls file_id

let mem t file_id =
  match t.table with Mem tbl -> Id.Table.mem tbl file_id | Log ls -> Log_store.mem ls file_id

let replication_of t file_id =
  match t.table with
  | Mem tbl ->
    Option.map (fun e -> e.cert.Certificate.replication) (Id.Table.find_opt tbl file_id)
  | Log ls -> Log_store.replication_of ls file_id

let remove_if t file_id pred =
  match get t file_id with
  | None -> `Absent
  | Some entry when not (pred entry.cert) -> `Kept
  | Some entry ->
    (match t.table with
    | Mem tbl -> Id.Table.remove tbl file_id
    | Log ls -> Log_store.delete ls file_id);
    t.used <- t.used - entry.cert.Certificate.size;
    notify t (Removed entry.cert);
    `Removed entry

let remove t file_id =
  match remove_if t file_id (fun _ -> true) with `Removed e -> Some e | `Kept | `Absent -> None

let iter t f =
  match t.table with
  | Mem tbl -> Id.Table.iter (fun _ e -> f e) tbl
  | Log ls -> Log_store.iter ls f

let entries t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  !acc

let iter_sizes t f =
  match t.table with
  | Mem tbl -> Id.Table.iter (fun _ e -> f e.cert.Certificate.size) tbl
  | Log ls -> Log_store.iter_sizes ls f

let flush t = match t.table with Mem _ -> () | Log ls -> Log_store.flush ls
let close t = match t.table with Mem _ -> () | Log ls -> Log_store.close ls
let log_stats t = match t.table with Mem _ -> None | Log ls -> Some (Log_store.stats ls)

let add_pointer t ~file_id ~holder = Id.Table.replace t.pointers file_id holder
let pointer t file_id = Id.Table.find_opt t.pointers file_id
let remove_pointer t file_id = Id.Table.remove t.pointers file_id
let pointer_count t = Id.Table.length t.pointers
