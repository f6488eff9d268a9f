(* The disk-backed log-structured store: backend equivalence against
   the in-memory oracle, compaction accounting, crash recovery. *)

module Store = Past_core.Store
module Log_store = Past_core.Log_store
module Cert = Past_core.Certificate
module Signer = Past_crypto.Signer
module Id = Past_id.Id
module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let keypair = lazy (Signer.generate (Rng.create 70) ~mode:`Insecure)

(* Fixed salt: the fileId is a function of the name alone, so tests can
   re-insert and remove the same id at different sizes. *)
let cert ?(data = "") ?salt ?(replication = 3) ~name ~size () =
  let keypair = Lazy.force keypair in
  let salt = match salt with Some s -> s | None -> "salt" in
  Cert.make_file ~keypair ~owner:(Signer.public keypair)
    ~owner_endorsement:(Bytes.of_string "endorsed") ~name ~data ~declared_size:size ~replication
    ~salt ~now:3.25 ()

let entry ?(data = "payload") ?(kind = Store.Primary) ?replication ~name ~size () =
  { Store.cert = cert ~data ?replication ~name ~size (); data; kind }

let fid name = (cert ~name ~size:1 ()).Cert.file_id

(* A scratch directory under the build dir, so tests never depend on
   the environment's temp handling. *)
let scratch_counter = ref 0

let scratch_dir () =
  incr scratch_counter;
  let d = Printf.sprintf "_log_store_test_%d_%d" (Unix.getpid ()) !scratch_counter in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let rm_rf d =
  (try Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
   with Sys_error _ -> ());
  try Sys.rmdir d with Sys_error _ -> ()

(* --- codec / basic backend behaviour ---------------------------------- *)

let roundtrip_entry () =
  let ls = Log_store.create () in
  let diverted = Store.Diverted { on_behalf = Id.random (Rng.create 1) ~width:128 } in
  let e = entry ~data:"some bytes \x00\xff with binary" ~kind:diverted ~name:"rt" ~size:123 () in
  Log_store.put ls e;
  (match Log_store.get ls e.Store.cert.Cert.file_id with
  | None -> Alcotest.fail "stored entry missing"
  | Some got ->
    check Alcotest.bool "cert round-trips" true (got.Store.cert = e.Store.cert);
    check Alcotest.string "data round-trips" e.Store.data got.Store.data;
    check Alcotest.bool "kind round-trips" true (got.Store.kind = diverted);
    check Alcotest.bool "signature still verifies" true
      (Cert.verify_file got.Store.cert));
  check (Alcotest.option Alcotest.int) "size_of" (Some 123)
    (Log_store.size_of ls e.Store.cert.Cert.file_id);
  check (Alcotest.option Alcotest.int) "replication_of" (Some 3)
    (Log_store.replication_of ls e.Store.cert.Cert.file_id);
  check (Alcotest.option Alcotest.int) "replication_of absent" None
    (Log_store.replication_of ls (fid "absent"));
  Log_store.close ls

let remove_and_tombstone () =
  let ls = Log_store.create () in
  Log_store.put ls (entry ~name:"a" ~size:10 ());
  Log_store.put ls (entry ~name:"b" ~size:20 ());
  (match Log_store.get ls (fid "a") with
  | Some e -> check Alcotest.int "stored size" 10 e.Store.cert.Cert.size
  | None -> Alcotest.fail "stored entry missing");
  Log_store.delete ls (fid "a");
  check Alcotest.bool "deleted" true (Log_store.get ls (fid "a") = None);
  let disk = (Log_store.stats ls).Log_store.disk_bytes in
  Log_store.delete ls (fid "a");
  check Alcotest.int "second delete writes no tombstone" disk
    (Log_store.stats ls).Log_store.disk_bytes;
  check Alcotest.int "one left" 1 (Log_store.length ls);
  check Alcotest.bool "b still there" true (Log_store.mem ls (fid "b"));
  Log_store.close ls

(* --- compaction -------------------------------------------------------- *)

let compaction_reclaims_garbage () =
  (* Tiny segments force frequent automatic compaction; replacing one
     id over and over generates pure garbage. *)
  let ls = Log_store.create ~segment_target:2_048 () in
  for i = 1 to 500 do
    Log_store.put ls (entry ~data:(String.make 64 'x') ~name:"hot" ~size:i ())
  done;
  let st = Log_store.stats ls in
  check Alcotest.int "one live entry" 1 st.Log_store.entry_count;
  check Alcotest.bool "compactions happened" true (st.Log_store.compactions > 0);
  (* dead bytes are bounded by the trigger: garbage <= max(live, target) + slack *)
  check Alcotest.bool "garbage bounded" true
    (st.Log_store.disk_bytes - st.Log_store.live_bytes <= 2 * 2_048 + st.Log_store.live_bytes);
  (match Log_store.get ls (fid "hot") with
  | Some e -> check Alcotest.int "latest version survives" 500 e.Store.cert.Cert.size
  | None -> Alcotest.fail "entry lost in compaction");
  Log_store.close ls

let explicit_compaction_exact () =
  let ls = Log_store.create () in
  for i = 1 to 50 do
    Log_store.put ls (entry ~name:(Printf.sprintf "k%d" i) ~size:(i * 10) ())
  done;
  for i = 1 to 25 do
    Log_store.delete ls (fid (Printf.sprintf "k%d" i))
  done;
  let before = Log_store.stats ls in
  check Alcotest.bool "garbage exists" true (before.Log_store.disk_bytes > before.Log_store.live_bytes);
  Log_store.compact ls;
  let after = Log_store.stats ls in
  check Alcotest.int "live entries unchanged" 25 after.Log_store.entry_count;
  check Alcotest.int "zero garbage after compaction" after.Log_store.live_bytes
    after.Log_store.disk_bytes;
  check Alcotest.int "live bytes preserved" before.Log_store.live_bytes after.Log_store.live_bytes;
  for i = 26 to 50 do
    match Log_store.get ls (fid (Printf.sprintf "k%d" i)) with
    | Some e -> check Alcotest.int "size intact" (i * 10) e.Store.cert.Cert.size
    | None -> Alcotest.fail "live entry lost"
  done;
  Log_store.close ls

(* --- crash recovery ---------------------------------------------------- *)

let row (e : Store.entry) =
  ( Id.to_hex e.Store.cert.Cert.file_id,
    e.Store.cert.Cert.size,
    e.Store.data,
    e.Store.kind )

(* Every entry, plus the replication factor the index answers for it
   (rebuilt by replay, not read from the record). *)
let snapshot ls =
  let acc = ref [] in
  Log_store.iter ls (fun e ->
      let k = Log_store.replication_of ls e.Store.cert.Cert.file_id in
      check (Alcotest.option Alcotest.int) "index replication = record replication"
        (Some e.Store.cert.Cert.replication) k;
      acc := row e :: !acc);
  List.sort compare !acc

let reopen_restores_state () =
  let dir = scratch_dir () in
  let ls = Log_store.create ~dir () in
  for i = 1 to 100 do
    Log_store.put ls
      (entry ~data:(Printf.sprintf "payload-%d" i) ~replication:(1 + (i mod 5))
         ~name:(Printf.sprintf "f%d" i) ~size:i ())
  done;
  for i = 1 to 40 do
    Log_store.delete ls (fid (Printf.sprintf "f%d" i))
  done;
  let before = snapshot ls in
  let used_before = Log_store.stats ls in
  Log_store.close ls;
  let ls2 = Log_store.create ~dir () in
  check Alcotest.int "entry count rebuilt" used_before.Log_store.entry_count
    (Log_store.length ls2);
  check Alcotest.bool "state identical after reopen" true (snapshot ls2 = before);
  Log_store.close ls2;
  rm_rf dir

let reopen_mid_compaction () =
  (* Crash at the worst recovery point: new chain fully written, old
     chain not yet unlinked. Replay of both must land on the same
     state. *)
  let dir = scratch_dir () in
  let ls = Log_store.create ~dir ~segment_target:1_024 () in
  for i = 1 to 60 do
    Log_store.put ls (entry ~data:(String.make 32 'd') ~name:(Printf.sprintf "g%d" (i mod 20)) ~size:i ())
  done;
  Log_store.delete ls (fid "g3");
  Log_store.delete ls (fid "g7");
  let before = snapshot ls in
  Log_store.compact ~crash_before_cleanup:true ls;
  (* both chains now on disk; the store is dead *)
  (match Log_store.put ls (entry ~name:"x" ~size:1 ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "crashed store accepted a put");
  let ls2 = Log_store.create ~dir () in
  check Alcotest.bool "index rebuilds identically over both chains" true
    (snapshot ls2 = before);
  (* the recovered store keeps working: replace and read back *)
  Log_store.put ls2 (entry ~data:"fresh" ~name:"g5" ~size:999 ());
  (match Log_store.get ls2 (fid "g5") with
  | Some e -> check Alcotest.int "post-recovery write" 999 e.Store.cert.Cert.size
  | None -> Alcotest.fail "post-recovery entry missing");
  Log_store.close ls2;
  rm_rf dir

(* The newest segment file of a store directory. *)
let last_segment dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".log")
  |> List.sort compare |> List.rev |> List.hd |> Filename.concat dir

let torn_tail_truncated () =
  let dir = scratch_dir () in
  let ls = Log_store.create ~dir () in
  for i = 1 to 10 do
    Log_store.put ls (entry ~name:(Printf.sprintf "t%d" i) ~size:i ())
  done;
  let before = snapshot ls in
  Log_store.close ls;
  (* simulate a torn write: append garbage to the active segment *)
  let path = last_segment dir in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\xa5\x01\xff\xff";
  (* valid magic, then a truncated header/payload *)
  close_out oc;
  let ls2 = Log_store.create ~dir () in
  check Alcotest.bool "torn tail dropped, prefix intact" true (snapshot ls2 = before);
  (* the store appends over the truncated tail without corruption *)
  Log_store.put ls2 (entry ~name:"t11" ~size:11 ());
  Log_store.close ls2;
  let ls3 = Log_store.create ~dir () in
  check Alcotest.int "append after truncation replays" 11 (Log_store.length ls3);
  Log_store.close ls3;
  rm_rf dir

(* Eight records in one segment, then one corruption: the file cut at a
   random byte, or one random bit flipped. Replay must not raise, must
   keep every record wholly before the damage, and must stop at a
   record boundary — a second replay sees exactly what the first kept.
   A cut leaves exactly the records that end before it. *)
let qcheck_corrupt_segment =
  QCheck.Test.make ~name:"corrupt segment replays to its last good record" ~count:100
    QCheck.(triple bool (int_bound 1_000_000) (int_bound 7))
    (fun (cut, where, bit) ->
      let dir = scratch_dir () in
      let ls = Log_store.create ~dir () in
      let entries =
        List.init 8 (fun i ->
            entry ~data:(String.make (7 * i) 'c') ~replication:(1 + i) ~name:(Printf.sprintf "c%d" i)
              ~size:(i + 1) ())
      in
      let path = last_segment dir in
      let ends =
        List.map
          (fun e ->
            Log_store.put ls e;
            Log_store.flush ls;
            (Unix.stat path).Unix.st_size)
          entries
      in
      Log_store.close ls;
      let p = where mod List.nth ends 7 in
      if cut then Unix.truncate path p
      else begin
        let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
        Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)
      end;
      let intact =
        List.filteri (fun i _ -> List.nth ends i <= p) entries |> List.map row |> List.sort compare
      in
      let ls2 = Log_store.create ~dir () in
      let got = snapshot ls2 in
      Log_store.close ls2;
      let ls3 = Log_store.create ~dir () in
      let again = snapshot ls3 in
      Log_store.put ls3 (entry ~name:"after" ~size:1 ());
      let writable = Log_store.mem ls3 (fid "after") in
      Log_store.close ls3;
      rm_rf dir;
      writable && again = got
      && if cut then got = intact else List.for_all (fun r -> List.mem r got) intact)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A record cut short under an open store: the read fails naming the
   segment file, the offset and the length it wanted. The two records
   have the same length, so the second starts at half the file. *)
let short_read_named () =
  let dir = scratch_dir () in
  let ls = Log_store.create ~dir () in
  Log_store.put ls (entry ~name:"s1" ~size:1 ());
  Log_store.put ls (entry ~name:"s2" ~size:2 ());
  Log_store.flush ls;
  let path = last_segment dir in
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 3);
  (match Log_store.get ls (fid "s2") with
  | _ -> Alcotest.fail "a truncated record read back"
  | exception Failure msg ->
    let half = size / 2 in
    check Alcotest.bool ("names the segment: " ^ msg) true (contains msg (Filename.basename path));
    check Alcotest.bool ("names the length: " ^ msg) true
      (contains msg (Printf.sprintf "of %d bytes" half));
    check Alcotest.bool ("names the offset: " ^ msg) true
      (contains msg (Printf.sprintf "at offset %d" half)));
  Log_store.close ls;
  rm_rf dir

(* --- descriptor lifetime ----------------------------------------------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* One read descriptor per segment, opened on its first read: reads
   across many segments hold one each and repeated reads add none;
   compaction closes those of the segments it unlinks, and close
   returns the process to its baseline. *)
let descriptor_lifetime () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let baseline = open_fds () in
  let ls = Log_store.create ~segment_target:1_024 () in
  let name i = Printf.sprintf "d%d" i in
  for i = 1 to 40 do
    Log_store.put ls (entry ~data:(String.make 64 'x') ~name:(name i) ~size:i ())
  done;
  let read_all () =
    for i = 1 to 40 do
      if Log_store.mem ls (fid (name i)) then
        match Log_store.get ls (fid (name i)) with
        | Some e -> check Alcotest.int "read back" i e.Store.cert.Cert.size
        | None -> Alcotest.fail "entry missing"
    done
  in
  check Alcotest.int "only the append channel before any read" (baseline + 1) (open_fds ());
  read_all ();
  let segments = (Log_store.stats ls).Log_store.segments in
  check Alcotest.bool "records span many segments" true (segments >= 8);
  check Alcotest.int "one descriptor per segment" (baseline + 1 + segments) (open_fds ());
  read_all ();
  check Alcotest.int "repeated reads open nothing" (baseline + 1 + segments) (open_fds ());
  for i = 1 to 20 do
    Log_store.delete ls (fid (name i))
  done;
  Log_store.compact ls;
  check Alcotest.int "compaction closes the unlinked segments'" (baseline + 1) (open_fds ());
  read_all ();
  check Alcotest.int "the compacted chain reopens per segment"
    (baseline + 1 + (Log_store.stats ls).Log_store.segments)
    (open_fds ());
  Log_store.close ls;
  check Alcotest.int "close returns to baseline" baseline (open_fds ())

(* --- mem/log equivalence through the Store front-end ------------------- *)

type op =
  | Put of int * int
  | Force_put of int * int
  | Remove of int
  | Reclaim of int  (** [remove_if] whose predicate holds *)
  | Reclaim_refused of int  (** [remove_if] whose predicate fails *)
  | Replication_of of int

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun s z -> Put (s, z)) (int_range 0 7) (int_range 1 300);
        map2 (fun s z -> Force_put (s, z)) (int_range 0 7) (int_range 1 300);
        map (fun s -> Remove s) (int_range 0 7);
        map (fun s -> Reclaim s) (int_range 0 7);
        map (fun s -> Reclaim_refused s) (int_range 0 7);
        map (fun s -> Replication_of s) (int_range 0 7);
      ])

let arb_ops = QCheck.make ~print:(fun l -> string_of_int (List.length l)) QCheck.Gen.(list_size (int_range 0 60) op_gen)

(* Each op's result, as a string both backends must agree on. *)
let apply_op store op =
  let name_of slot = Printf.sprintf "q%d" slot in
  (* the replication factor varies with the size, so a replacement can
     change what [replication_of] answers *)
  let cert_of slot size = cert ~name:(name_of slot) ~replication:(1 + (size mod 5)) ~size () in
  let put_result = function Ok () -> "ok" | Error `Refused -> "refused" in
  let size_of (e : Store.entry) = string_of_int e.Store.cert.Cert.size in
  let reclaim slot pred =
    match Store.remove_if store (fid (name_of slot)) pred with
    | `Removed e -> "removed " ^ size_of e
    | `Kept -> "kept"
    | `Absent -> "absent"
  in
  match op with
  | Put (slot, size) ->
    put_result (Store.put store ~cert:(cert_of slot size) ~data:"d" ~kind:Store.Primary)
  | Force_put (slot, size) ->
    put_result
      (Store.force_put store ~cert:(cert_of slot size) ~data:"d"
         ~kind:(Store.Diverted { on_behalf = Id.zero ~width:128 }))
  | Remove slot -> (
    match Store.remove store (fid (name_of slot)) with Some e -> size_of e | None -> "none")
  | Reclaim slot ->
    let owner = Signer.public (Lazy.force keypair) in
    reclaim slot (fun c -> Signer.equal_public c.Cert.owner owner)
  | Reclaim_refused slot -> reclaim slot (fun _ -> false)
  | Replication_of slot -> (
    match Store.replication_of store (fid (name_of slot)) with
    | Some k -> "k=" ^ string_of_int k
    | None -> "none")

let observed store ops =
  (* Run the op sequence and collect every observable: the full event
     stream, the final accounting, the sorted entry set, and the order
     [Store.iter] visits ids in — re-replication pushes in that order,
     so the two backends must agree on it, not only on the set. *)
  let events = ref [] in
  Store.set_observer store (fun ev ->
      events :=
        (match ev with
        | Store.Added c -> ("add", Id.to_hex c.Cert.file_id, c.Cert.size)
        | Store.Removed c -> ("rem", Id.to_hex c.Cert.file_id, c.Cert.size))
        :: !events);
  let results = List.map (apply_op store) ops in
  let entries =
    Store.entries store
    |> List.map (fun e ->
           (Id.to_hex e.Store.cert.Cert.file_id, e.Store.cert.Cert.size, e.Store.data))
    |> List.sort compare
  in
  let order = ref [] in
  Store.iter store (fun e -> order := Id.to_hex e.Store.cert.Cert.file_id :: !order);
  ( results,
    List.rev !events,
    Store.used store,
    Store.free store,
    Store.file_count store,
    entries,
    List.rev !order )

let qcheck_mem_log_equivalence =
  QCheck.Test.make ~name:"mem and log backends are observably identical" ~count:60 arb_ops
    (fun ops ->
      let mem = Store.create ~capacity:2_000 ~backend:Store.Mem () in
      let log =
        (* a tiny segment target so compactions fire mid-sequence and
           must stay invisible *)
        Store.create ~capacity:2_000
          ~backend:(Store.Log { dir = None; segment_target = Some 1_024 })
          ()
      in
      let a = observed mem ops in
      let b = observed log ops in
      Store.close mem;
      Store.close log;
      a = b)

(* [remove_if] reads once and removes only when its predicate holds: a
   refused entry stays, with its space still charged and no event. The
   equivalence property cannot see this (both backends share the
   front-end), so it is checked on each backend directly. *)
let remove_if_predicate backend () =
  let s = Store.create ~capacity:10_000 ~backend () in
  let events = ref 0 in
  Store.set_observer s (fun _ -> incr events);
  let c = cert ~name:"r" ~replication:4 ~size:100 () in
  ignore (Store.force_put s ~cert:c ~data:"d" ~kind:Store.Primary);
  check (Alcotest.option Alcotest.int) "replication_of" (Some 4)
    (Store.replication_of s c.Cert.file_id);
  (match Store.remove_if s c.Cert.file_id (fun _ -> false) with
  | `Kept -> ()
  | `Removed _ | `Absent -> Alcotest.fail "refused entry removed");
  check Alcotest.bool "still stored" true (Store.mem s c.Cert.file_id);
  check Alcotest.int "space still charged" 100 (Store.used s);
  check Alcotest.int "no removal event" 1 !events;
  (match Store.remove_if s c.Cert.file_id (fun c -> c.Cert.size = 100) with
  | `Removed e -> check Alcotest.int "removed entry returned" 100 e.Store.cert.Cert.size
  | `Kept | `Absent -> Alcotest.fail "entry kept");
  check Alcotest.bool "gone" false (Store.mem s c.Cert.file_id);
  check Alcotest.int "space freed" 0 (Store.used s);
  check Alcotest.int "one removal event" 2 !events;
  check Alcotest.bool "absent after" true
    (Store.remove_if s c.Cert.file_id (fun _ -> true) = `Absent);
  Store.close s

let front_end_on_log_backend () =
  (* The Store policy checks work unchanged over the disk backend. *)
  let s =
    Store.create ~capacity:1000 ~t_pri:0.1
      ~backend:(Store.Log { dir = None; segment_target = None })
      ()
  in
  check Alcotest.string "backend name" "log" (Store.backend_name s);
  (match Store.put s ~cert:(cert ~name:"a" ~size:500 ()) ~data:"" ~kind:Store.Primary with
  | Ok () -> Alcotest.fail "threshold must refuse"
  | Error `Refused -> ());
  (match Store.put s ~cert:(cert ~name:"a" ~size:100 ()) ~data:"" ~kind:Store.Primary with
  | Ok () -> ()
  | Error `Refused -> Alcotest.fail "within threshold");
  (match Store.put s ~cert:(cert ~name:"a" ~size:1001 ()) ~data:"" ~kind:Store.Primary with
  | Ok () -> Alcotest.fail "replacement must not breach capacity"
  | Error `Refused -> ());
  check Alcotest.int "used" 100 (Store.used s);
  check Alcotest.bool "stats exposed" true (Store.log_stats s <> None);
  Store.close s

(* Scratch stores opened, written and closed on four domains at once,
   as pool rows do under --store log: the process-wide table of scratch
   directories must survive concurrent creates and closes, and every
   close must leave no directory behind. *)
let concurrent_scratch_stores () =
  let base = scratch_dir () in
  let previous = Option.value (Sys.getenv_opt "PAST_STORE_DIR") ~default:"" in
  Unix.putenv "PAST_STORE_DIR" base;
  let e = entry ~name:"shared" ~size:10 () in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PAST_STORE_DIR" previous;
      rm_rf base)
    (fun () ->
      let worker () =
        for _ = 1 to 40 do
          let ls = Log_store.create () in
          Log_store.put ls e;
          Log_store.close ls
        done
      in
      List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn worker));
      check (Alcotest.list Alcotest.string) "every scratch directory removed" []
        (Array.to_list (Sys.readdir base)))

let suite =
  ( "log-store",
    [
      "entry round-trip" => roundtrip_entry;
      "remove / tombstone" => remove_and_tombstone;
      "compaction reclaims garbage" => compaction_reclaims_garbage;
      "explicit compaction exact" => explicit_compaction_exact;
      "reopen restores state" => reopen_restores_state;
      "reopen mid-compaction" => reopen_mid_compaction;
      "torn tail truncated" => torn_tail_truncated;
      QCheck_alcotest.to_alcotest qcheck_corrupt_segment;
      "short read names the segment" => short_read_named;
      "descriptor lifetime" => descriptor_lifetime;
      "concurrent scratch stores" => concurrent_scratch_stores;
      QCheck_alcotest.to_alcotest qcheck_mem_log_equivalence;
      "front-end on log backend" => front_end_on_log_backend;
      "remove_if predicate (mem)" => remove_if_predicate Store.Mem;
      "remove_if predicate (log)"
      => remove_if_predicate (Store.Log { dir = None; segment_target = None });
    ] )
