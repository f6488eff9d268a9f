(* Worker-domain pool. See the .mli for the contract.

   Design notes:

   - One FIFO of thunks shared by all maps on the pool, guarded by
     [mutex]/[work]. Workers block on [work] when idle and exit when
     [live] goes false and the queue is drained.
   - Each [map] call owns its result array, pending counter and
     completion condition; tasks touch shared state only under
     [mutex], so results written in a worker domain are published to
     the caller by the release/acquire pairing on that mutex.
   - The caller drains the queue alongside the workers instead of
     blocking immediately. A pool of width j therefore runs j tasks
     concurrently with only j - 1 spawned domains, and a nested [map]
     issued from inside a task keeps making progress even when every
     worker is busy. *)

let max_jobs = 64 (* stay well under the runtime's domain limit *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t; (* signalled on enqueue and on shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

let recommended () = Domain.recommended_domain_count ()

let jobs pool = pool.jobs

let worker_loop pool =
  let rec next () =
    Mutex.lock pool.mutex;
    let rec take () =
      if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
      else if pool.live then begin
        Condition.wait pool.work pool.mutex;
        take ()
      end
      else None
    in
    match take () with
    | Some task ->
      Mutex.unlock pool.mutex;
      task ();
      next ()
    | None -> Mutex.unlock pool.mutex
  in
  next ()

let create ~jobs =
  let jobs = Stdlib.max 1 (Stdlib.min jobs max_jobs) in
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [];
    }
  in
  if jobs > 1 then
    pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.live <- false;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let map pool f items =
  match items with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when pool.jobs = 1 -> List.map f items
  | _ ->
    let input = Array.of_list items in
    let n = Array.length input in
    let results = Array.make n None in
    let pending = ref n in
    (* First-failing-index exception, so the caller sees the same error
       a sequential List.map would have raised. *)
    let failure = ref None in
    let finished = Condition.create () in
    let task i () =
      (match f input.(i) with
      | r -> results.(i) <- Some r
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock pool.mutex;
        (match !failure with
        | Some (j, _, _) when j < i -> ()
        | _ -> failure := Some (i, e, bt));
        Mutex.unlock pool.mutex);
      Mutex.lock pool.mutex;
      decr pending;
      if !pending = 0 then Condition.broadcast finished;
      Mutex.unlock pool.mutex
    in
    Mutex.lock pool.mutex;
    for i = 0 to n - 1 do
      Queue.push (task i) pool.queue
    done;
    Condition.broadcast pool.work;
    (* Drive: run queued tasks ourselves; once the queue is empty wait
       for in-flight tasks (ours may be among them, run by a worker). *)
    let rec drive () =
      if not (Queue.is_empty pool.queue) then begin
        let t = Queue.pop pool.queue in
        Mutex.unlock pool.mutex;
        t ();
        Mutex.lock pool.mutex;
        drive ()
      end
      else if !pending > 0 then begin
        Condition.wait finished pool.mutex;
        drive ()
      end
    in
    drive ();
    Mutex.unlock pool.mutex;
    (match !failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false (* all tasks completed *)) results)
