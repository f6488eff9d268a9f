module Id = Past_id.Id
module Signer = Past_crypto.Signer

(* On-disk format. A segment is a flat sequence of records:

     magic (u8, 0xA5) | tag (u8) | payload_len (u32 LE) | payload

   tag 0 = tombstone (payload: id), tag 1 = primary put, tag 2 =
   diverted put (payload: id [on_behalf] owner endorsement hash size
   replication salt inserted_at signature data). Ids are u8 byte-count
   + raw bytes; strings are u32 LE byte-count + bytes. Anything that
   fails to parse — including a record cut short by a crash — ends the
   segment at the last good record.

   Reads go through one read-only descriptor per segment, opened on the
   segment's first read and closed when compaction unlinks it or the
   store closes: [lseek] to the slot and [read] exactly its length. The
   index slot carries the certificate's size and replication factor, so
   admission and reclaim routing never touch the disk. *)

type kind = Primary | Diverted of { on_behalf : Id.t }
type entry = { cert : Certificate.file; data : string; kind : kind }

let initial_index_size = 64
let magic = 0xA5
let tag_tombstone = 0
let tag_primary = 1
let tag_diverted = 2

exception Corrupt

type slot = { sl_seg : int; sl_off : int; sl_len : int; sl_size : int; sl_repl : int }

type seg = {
  sg_id : int;
  mutable sg_bytes : int;
  mutable sg_live : int;
  mutable sg_fd : Unix.file_descr option;  (* read descriptor, opened on first read *)
}

let new_seg id = { sg_id = id; sg_bytes = 0; sg_live = 0; sg_fd = None }

type stats = {
  segments : int;
  disk_bytes : int;
  live_bytes : int;
  entry_count : int;
  compactions : int;
  compacted_bytes : int;
}

type t = {
  dir : string;
  owns_dir : bool;
  segment_target : int;
  (* Created at [initial_index_size] and driven through the same
     replace/remove sequence as {!Store}'s in-memory table, so both
     visit ids in the same order. *)
  index : slot Id.Table.t;
  segs : (int, seg) Hashtbl.t;
  mutable active : seg;
  mutable out : out_channel option;
  mutable out_dirty : bool;
  mutable disk_bytes : int;
  mutable live_bytes : int;
  mutable compactions : int;
  mutable compacted_bytes : int;
  mutable closed : bool;
}

let seg_path dir id = Filename.concat dir (Printf.sprintf "seg-%08d.log" id)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Scratch directories are deleted on {!close}; the at_exit sweep
   covers stores the process abandons without closing. *)
let live_temp_dirs : (string, unit) Hashtbl.t = Hashtbl.create 8
let cleanup_registered = ref false

let remove_dir d =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
       (Sys.readdir d)
   with Sys_error _ -> ());
  try Sys.rmdir d with Sys_error _ -> ()

let register_temp d =
  if not !cleanup_registered then begin
    cleanup_registered := true;
    at_exit (fun () -> Hashtbl.iter (fun d () -> remove_dir d) live_temp_dirs)
  end;
  Hashtbl.replace live_temp_dirs d ()

let fresh_temp_dir () =
  let base =
    match Sys.getenv_opt "PAST_STORE_DIR" with
    | Some d when d <> "" -> mkdir_p d; d
    | _ -> Filename.get_temp_dir_name ()
  in
  let f = Filename.temp_file ~temp_dir:base "past-log-" ".d" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

(* -- codec -------------------------------------------------------- *)

let add_str buf s =
  Buffer.add_int32_le buf (Int32.of_int (String.length s));
  Buffer.add_string buf s

let add_id buf id =
  let b = Id.to_bytes id in
  Buffer.add_uint8 buf (Bytes.length b);
  Buffer.add_bytes buf b

let frame tag payload =
  let buf = Buffer.create (Buffer.length payload + 6) in
  Buffer.add_uint8 buf magic;
  Buffer.add_uint8 buf tag;
  Buffer.add_int32_le buf (Int32.of_int (Buffer.length payload));
  Buffer.add_buffer buf payload;
  Buffer.contents buf

let encode_put (e : entry) =
  let c = e.cert in
  let p = Buffer.create 256 in
  add_id p c.Certificate.file_id;
  (match e.kind with
  | Primary -> ()
  | Diverted { on_behalf } -> add_id p on_behalf);
  add_str p (Signer.public_to_string c.Certificate.owner);
  add_str p (Bytes.to_string c.Certificate.owner_endorsement);
  add_str p c.Certificate.content_hash;
  Buffer.add_int64_le p (Int64.of_int c.Certificate.size);
  Buffer.add_int32_le p (Int32.of_int c.Certificate.replication);
  add_str p c.Certificate.salt;
  Buffer.add_int64_le p (Int64.bits_of_float c.Certificate.inserted_at);
  add_str p (Bytes.to_string c.Certificate.signature);
  add_str p e.data;
  let tag =
    match e.kind with
    | Primary -> tag_primary
    | Diverted _ -> tag_diverted
  in
  frame tag p

let encode_tombstone id =
  let p = Buffer.create 32 in
  add_id p id;
  frame tag_tombstone p

let get_u32 s off =
  let v = Int32.to_int (String.get_int32_le s off) in
  if v < 0 then raise Corrupt;
  v

(* End of the record starting at [off]: its header must lie within [s],
   its payload may run past the end (every read checks [need]). *)
let record_limit s off =
  if off + 6 > String.length s then raise Corrupt;
  off + 6 + get_u32 s (off + 2)

(* [decode_entry s off] parses the record starting at [off]; [s] must
   hold the full record. Raises [Corrupt] on any malformation. *)
let decode_entry s off : entry =
  let limit = record_limit s off in
  let tag = Char.code s.[off + 1] in
  let pos = ref (off + 6) in
  let need n = if !pos + n > limit || limit > String.length s then raise Corrupt in
  let u8 () =
    need 1;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let raw n =
    need n;
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  let read_id () = Id.of_bytes (Bytes.of_string (raw (u8 ()))) in
  let read_str () =
    need 4;
    let n = get_u32 s !pos in
    pos := !pos + 4;
    raw n
  in
  let read_i64 () =
    need 8;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    v
  in
  let file_id = read_id () in
  if Id.bits file_id <> Id.file_bits then raise Corrupt;
  let kind =
    if tag = tag_diverted then Diverted { on_behalf = read_id () }
    else if tag = tag_primary then Primary
    else raise Corrupt
  in
  let owner =
    match Signer.public_of_string (read_str ()) with
    | p -> p
    | exception Invalid_argument _ -> raise Corrupt
  in
  let owner_endorsement = Bytes.of_string (read_str ()) in
  let content_hash = read_str () in
  let size = Int64.to_int (read_i64 ()) in
  need 4;
  let replication = Int32.to_int (String.get_int32_le s !pos) in
  pos := !pos + 4;
  let salt = read_str () in
  let inserted_at = Int64.float_of_bits (read_i64 ()) in
  let signature = Bytes.of_string (read_str ()) in
  let data = read_str () in
  {
    cert =
      {
        Certificate.file_id;
        owner;
        owner_endorsement;
        content_hash;
        size;
        replication;
        salt;
        inserted_at;
        signature;
      };
    data;
    kind;
  }

let decode_tombstone s off =
  let limit = record_limit s off in
  if off + 7 > limit || limit > String.length s then raise Corrupt;
  let n = Char.code s.[off + 6] in
  (* A fileId of any other width would make the index's equality raise. *)
  if n * 8 <> Id.file_bits || off + 7 + n > limit then raise Corrupt;
  Id.of_bytes (Bytes.of_string (String.sub s (off + 7) n))

(* -- state plumbing ----------------------------------------------- *)

let check_open t = if t.closed then invalid_arg "Log_store: store is closed"
let outc t = match t.out with Some o -> o | None -> invalid_arg "Log_store: no active segment"

let flush_out t =
  if t.out_dirty then begin
    flush (outc t);
    t.out_dirty <- false
  end

(* Forget the slot an id currently occupies (its bytes become garbage)
   WITHOUT touching the index table — callers either [Id.Table.replace]
   (an in-place update, preserving iteration order exactly as the Mem
   backend's does) or [Id.Table.remove] right after. *)
let orphan_slot t id =
  match Id.Table.find_opt t.index id with
  | None -> ()
  | Some sl ->
    t.live_bytes <- t.live_bytes - sl.sl_len;
    (match Hashtbl.find_opt t.segs sl.sl_seg with
    | Some sg -> sg.sg_live <- sg.sg_live - sl.sl_len
    | None -> ())

let truncate_file path keep =
  let good = In_channel.with_open_bin path (fun ic -> really_input_string ic keep) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc good)

let replay t seg_id =
  let path = seg_path t.dir seg_id in
  let s = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length s in
  let seg = new_seg seg_id in
  Hashtbl.replace t.segs seg_id seg;
  let pos = ref 0 and ok = ref true in
  while !ok do
    let off = !pos in
    if off + 6 > n || Char.code s.[off] <> magic then ok := false
    else begin
      match get_u32 s (off + 2) with
      | exception Corrupt -> ok := false
      | plen when off + 6 + plen > n -> ok := false
      | plen -> (
        let len = 6 + plen in
        match
          if Char.code s.[off + 1] = tag_tombstone then begin
            let id = decode_tombstone s off in
            orphan_slot t id;
            Id.Table.remove t.index id
          end
          else begin
            let c = (decode_entry s off).cert in
            orphan_slot t c.Certificate.file_id;
            Id.Table.replace t.index c.Certificate.file_id
              {
                sl_seg = seg_id;
                sl_off = off;
                sl_len = len;
                sl_size = c.Certificate.size;
                sl_repl = c.Certificate.replication;
              };
            seg.sg_live <- seg.sg_live + len;
            t.live_bytes <- t.live_bytes + len
          end
        with
        | () ->
          seg.sg_bytes <- seg.sg_bytes + len;
          pos := off + len
        | exception Corrupt -> ok := false)
    end
  done;
  if !pos < n then truncate_file path !pos;
  t.disk_bytes <- t.disk_bytes + seg.sg_bytes

let existing_segment_ids dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         if String.length f = 16 && String.sub f 0 4 = "seg-" && Filename.check_suffix f ".log"
         then int_of_string_opt (String.sub f 4 8)
         else None)
  |> List.sort compare

let open_append path = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let create ?dir ?(segment_target = 8 * 1024 * 1024) () =
  let dir, owns_dir =
    match dir with
    | Some d ->
      mkdir_p d;
      (d, false)
    | None -> (fresh_temp_dir (), true)
  in
  if owns_dir then register_temp dir;
  let t =
    {
      dir;
      owns_dir;
      segment_target;
      index = Id.Table.create initial_index_size;
      segs = Hashtbl.create 16;
      active = new_seg 0;
      out = None;
      out_dirty = false;
      disk_bytes = 0;
      live_bytes = 0;
      compactions = 0;
      compacted_bytes = 0;
      closed = false;
    }
  in
  let ids = existing_segment_ids dir in
  List.iter (replay t) ids;
  let active_id = match List.rev ids with id :: _ -> id | [] -> 0 in
  let active =
    match Hashtbl.find_opt t.segs active_id with
    | Some s -> s
    | None ->
      let s = new_seg active_id in
      Hashtbl.replace t.segs active_id s;
      s
  in
  t.active <- active;
  t.out <- Some (open_append (seg_path dir active_id));
  t

(* -- reads --------------------------------------------------------- *)

let seg_fd t sg =
  match sg.sg_fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.openfile (seg_path t.dir sg.sg_id) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    sg.sg_fd <- Some fd;
    fd

let close_fd sg =
  match sg.sg_fd with
  | None -> ()
  | Some fd ->
    sg.sg_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Exactly [len] bytes at [off] of segment [sg]. The caller flushes the
   active segment's buffer first. *)
let read_at t sg ~off ~len =
  let fd = seg_fd t sg in
  ignore (Unix.lseek fd off Unix.SEEK_SET : int);
  let buf = Bytes.create len in
  let rec fill got =
    if got < len then
      match Unix.read fd buf got (len - got) with
      | 0 ->
        failwith
          (Printf.sprintf "Log_store: short read of %s: %d of %d bytes at offset %d"
             (seg_path t.dir sg.sg_id) got len off)
      | r -> fill (got + r)
  in
  fill 0;
  Bytes.unsafe_to_string buf

let read_record t sl =
  if sl.sl_seg = t.active.sg_id then flush_out t;
  read_at t (Hashtbl.find t.segs sl.sl_seg) ~off:sl.sl_off ~len:sl.sl_len

let get t id =
  check_open t;
  match Id.Table.find_opt t.index id with
  | None -> None
  | Some sl -> Some (decode_entry (read_record t sl) 0)

let mem t id =
  check_open t;
  Id.Table.mem t.index id

let size_of t id =
  check_open t;
  match Id.Table.find_opt t.index id with Some sl -> Some sl.sl_size | None -> None

let replication_of t id =
  check_open t;
  match Id.Table.find_opt t.index id with Some sl -> Some sl.sl_repl | None -> None

let length t = Id.Table.length t.index

let iter t f =
  check_open t;
  Id.Table.iter (fun _ sl -> f (decode_entry (read_record t sl) 0)) t.index

let iter_sizes t f =
  check_open t;
  Id.Table.iter (fun _ sl -> f sl.sl_size) t.index

(* -- writes -------------------------------------------------------- *)

let start_segment t id =
  let s = new_seg id in
  Hashtbl.replace t.segs id s;
  t.active <- s;
  t.out <- Some (open_append (seg_path t.dir id));
  t.out_dirty <- false

let roll_if_needed t incoming =
  if t.active.sg_bytes > 0 && t.active.sg_bytes + incoming > t.segment_target then begin
    close_out (outc t);
    start_segment t (t.active.sg_id + 1)
  end

let append t record =
  let seg = t.active in
  let off = seg.sg_bytes in
  output_string (outc t) record;
  t.out_dirty <- true;
  let len = String.length record in
  seg.sg_bytes <- seg.sg_bytes + len;
  t.disk_bytes <- t.disk_bytes + len;
  off

(* -- compaction ---------------------------------------------------- *)

(* Copy every live record (raw bytes, in storage order: one sequential
   pass over the old chain, through the old segments' read descriptors)
   into a fresh chain of strictly higher segment ids, then unlink the
   old chain. Replay order is segment-id order with last-record-wins,
   so a crash anywhere in between — both chains on disk — recovers to
   exactly the same state. *)
let compact ?(crash_before_cleanup = false) t =
  check_open t;
  flush_out t;
  close_out (outc t);
  t.out <- None;
  let old_segs = Hashtbl.copy t.segs in
  let base = t.active.sg_id + 1 in
  let slots = Id.Table.fold (fun id sl acc -> (id, sl) :: acc) t.index [] in
  let slots =
    List.sort (fun (_, a) (_, b) -> compare (a.sl_seg, a.sl_off) (b.sl_seg, b.sl_off)) slots
  in
  Hashtbl.reset t.segs;
  t.disk_bytes <- 0;
  t.live_bytes <- 0;
  let moved = ref 0 in
  let cur = ref (new_seg base) in
  Hashtbl.replace t.segs base !cur;
  let cur_out = ref (open_out_bin (seg_path t.dir base)) in
  List.iter
    (fun (id, sl) ->
      let record = read_at t (Hashtbl.find old_segs sl.sl_seg) ~off:sl.sl_off ~len:sl.sl_len in
      if (!cur).sg_bytes > 0 && (!cur).sg_bytes + sl.sl_len > t.segment_target then begin
        close_out !cur_out;
        let nid = (!cur).sg_id + 1 in
        cur := new_seg nid;
        Hashtbl.replace t.segs nid !cur;
        cur_out := open_out_bin (seg_path t.dir nid)
      end;
      let off = (!cur).sg_bytes in
      output_string !cur_out record;
      (!cur).sg_bytes <- (!cur).sg_bytes + sl.sl_len;
      (!cur).sg_live <- (!cur).sg_live + sl.sl_len;
      t.disk_bytes <- t.disk_bytes + sl.sl_len;
      t.live_bytes <- t.live_bytes + sl.sl_len;
      moved := !moved + sl.sl_len;
      (* in-place update: index iteration order is unchanged *)
      Id.Table.replace t.index id { sl with sl_seg = (!cur).sg_id; sl_off = off })
    slots;
  Hashtbl.iter (fun _ sg -> close_fd sg) old_segs;
  flush !cur_out;
  t.compactions <- t.compactions + 1;
  t.compacted_bytes <- t.compacted_bytes + !moved;
  if crash_before_cleanup then begin
    (* the new chain is durable, the old one not yet unlinked: die here *)
    close_out !cur_out;
    t.closed <- true
  end
  else begin
    t.active <- !cur;
    t.out <- Some !cur_out;
    t.out_dirty <- false;
    Hashtbl.iter
      (fun id _ -> try Sys.remove (seg_path t.dir id) with Sys_error _ -> ())
      old_segs
  end

let maybe_compact t =
  let garbage = t.disk_bytes - t.live_bytes in
  if garbage > t.segment_target && garbage > t.live_bytes then compact t

let put t (e : entry) =
  check_open t;
  let record = encode_put e in
  roll_if_needed t (String.length record);
  let seg_id = t.active.sg_id in
  let off = append t record in
  let c = e.cert in
  orphan_slot t c.Certificate.file_id;
  let len = String.length record in
  Id.Table.replace t.index c.Certificate.file_id
    {
      sl_seg = seg_id;
      sl_off = off;
      sl_len = len;
      sl_size = c.Certificate.size;
      sl_repl = c.Certificate.replication;
    };
  t.active.sg_live <- t.active.sg_live + len;
  t.live_bytes <- t.live_bytes + len;
  maybe_compact t


let delete t id =
  check_open t;
  if Id.Table.mem t.index id then begin
    let record = encode_tombstone id in
    roll_if_needed t (String.length record);
    ignore (append t record : int);
    orphan_slot t id;
    Id.Table.remove t.index id;
    maybe_compact t
  end

let flush t =
  check_open t;
  flush_out t

let close t =
  if not t.closed then begin
    (try flush_out t with Sys_error _ -> ());
    (match t.out with Some o -> (try close_out o with Sys_error _ -> ()) | None -> ());
    t.out <- None;
    Hashtbl.iter (fun _ sg -> close_fd sg) t.segs;
    t.closed <- true;
    if t.owns_dir then begin
      remove_dir t.dir;
      Hashtbl.remove live_temp_dirs t.dir
    end
  end

let stats t =
  {
    segments = Hashtbl.length t.segs;
    disk_bytes = t.disk_bytes;
    live_bytes = t.live_bytes;
    entry_count = Id.Table.length t.index;
    compactions = t.compactions;
    compacted_bytes = t.compacted_bytes;
  }
