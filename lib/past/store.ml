module Id = Past_id.Id

type kind = Store_backend.kind = Primary | Diverted of { on_behalf : Id.t }
type entry = Store_backend.entry = { cert : Certificate.file; data : string; kind : kind }

type backend = Mem | Log of { dir : string option; segment_target : int option }

(* Set once by the binary before any worker domain spawns; read-only after. *)
let process_default = ref Mem
let set_default_backend backend = process_default := backend

type event = Added of Certificate.file | Removed of Certificate.file

type impl = Impl : (module Store_backend.S with type t = 'a) * 'a -> impl

type t = {
  capacity : int;
  t_pri : float;
  t_div : float;
  mutable used : int;
  impl : impl;
  log : Log_store.t option;  (* typed handle when impl is the log backend *)
  pointers : Past_pastry.Peer.t Id.Table.t;
  mutable observer : (event -> unit) option;
}

let create ~capacity ?(t_pri = 0.1) ?(t_div = 0.05) ?backend () =
  if capacity < 0 then invalid_arg "Store.create: negative capacity";
  if t_pri <= 0.0 || t_div <= 0.0 then invalid_arg "Store.create: thresholds must be positive";
  let backend = Option.value backend ~default:!process_default in
  let impl, log =
    match backend with
    | Mem -> (Impl ((module Store_backend.Mem), Store_backend.Mem.create ()), None)
    | Log { dir; segment_target } ->
      let ls = Log_store.create ?dir ?segment_target () in
      (Impl ((module Log_store), ls), Some ls)
  in
  { capacity; t_pri; t_div; used = 0; impl; log; pointers = Id.Table.create 16; observer = None }

let backend_name t =
  let (Impl ((module B), _)) = t.impl in
  B.backend_name

let set_observer t f = t.observer <- Some f
let notify t ev = match t.observer with Some f -> f ev | None -> ()

let capacity t = t.capacity
let used t = t.used
let free t = max 0 (t.capacity - t.used)
let utilization t = if t.capacity = 0 then 1.0 else float_of_int t.used /. float_of_int t.capacity

let file_count t =
  let (Impl ((module B), b)) = t.impl in
  B.length b

let admits t ~size ~kind =
  let threshold = match kind with `Primary -> t.t_pri | `Diverted -> t.t_div in
  size <= free t && float_of_int size <= threshold *. float_of_int (free t)

let insert t ~cert ~data ~kind =
  let (Impl ((module B), b)) = t.impl in
  let size = cert.Certificate.size in
  (* A same-id replacement is not a replica-count change, so only a
     genuinely new entry is announced to the observer. *)
  (match B.size_of b cert.Certificate.file_id with
  | Some old_size -> t.used <- t.used - old_size
  | None -> notify t (Added cert));
  B.put b { cert; data; kind };
  t.used <- t.used + size

(* Admission for a fileId already stored: the replacement is charged
   its size delta against the free space — no threshold (replacing a
   replica is not a new replica), but capacity stays a hard bound. The
   historical behaviour of admitting any replacement unconditionally
   let an adversarial same-id sequence push [used] past [capacity]. *)
let replacement_admitted t ~old_size ~size = size - old_size <= free t

let put t ~cert ~data ~kind =
  let (Impl ((module B), b)) = t.impl in
  let size = cert.Certificate.size in
  let admitted =
    match B.size_of b cert.Certificate.file_id with
    | Some old_size -> replacement_admitted t ~old_size ~size
    | None ->
      let admission_kind = match kind with Primary -> `Primary | Diverted _ -> `Diverted in
      admits t ~size ~kind:admission_kind
  in
  if admitted then begin
    insert t ~cert ~data ~kind;
    Ok ()
  end
  else Error `Refused

let force_put t ~cert ~data ~kind =
  let (Impl ((module B), b)) = t.impl in
  let size = cert.Certificate.size in
  let admitted =
    match B.size_of b cert.Certificate.file_id with
    | Some old_size -> replacement_admitted t ~old_size ~size
    | None -> size <= free t
  in
  if admitted then begin
    insert t ~cert ~data ~kind;
    Ok ()
  end
  else Error `Refused

let get t file_id =
  let (Impl ((module B), b)) = t.impl in
  B.get b file_id

let mem t file_id =
  let (Impl ((module B), b)) = t.impl in
  B.mem b file_id

let replication_of t file_id =
  let (Impl ((module B), b)) = t.impl in
  B.replication_of b file_id

let remove_if t file_id pred =
  let (Impl ((module B), b)) = t.impl in
  match B.get b file_id with
  | None -> `Absent
  | Some entry when not (pred entry.cert) -> `Kept
  | Some entry ->
    B.delete b file_id;
    t.used <- t.used - entry.cert.Certificate.size;
    notify t (Removed entry.cert);
    `Removed entry

let remove t file_id =
  match remove_if t file_id (fun _ -> true) with `Removed e -> Some e | `Kept | `Absent -> None

let entries t =
  let (Impl ((module B), b)) = t.impl in
  let acc = ref [] in
  B.iter b (fun e -> acc := e :: !acc);
  !acc

let iter t f =
  let (Impl ((module B), b)) = t.impl in
  B.iter b f

let iter_sizes t f =
  let (Impl ((module B), b)) = t.impl in
  B.iter_sizes b f

let flush t =
  let (Impl ((module B), b)) = t.impl in
  B.flush b

let close t =
  let (Impl ((module B), b)) = t.impl in
  B.close b

let log_stats t = Option.map Log_store.stats t.log

let add_pointer t ~file_id ~holder = Id.Table.replace t.pointers file_id holder
let pointer t file_id = Id.Table.find_opt t.pointers file_id
let remove_pointer t file_id = Id.Table.remove t.pointers file_id
let pointer_count t = Id.Table.length t.pointers
