module Id = Past_id.Id

(* Compact layout: one flat int array of packed cells, rows allocated
   on demand. A populated overlay of N nodes only ever fills about
   ⌈log_2^b N⌉ rows of the ⌈128/b⌉ the old cell matrix allocated
   eagerly, and each filled cell used to cost a [Some] block, an entry
   record and a boxed float — ~7 words against the packed cell's one.

   A cell holds the entry's address (addresses are non-negative and
   well below 2^30) plus one flag bit; [-1] is an empty cell. The
   proximity of an incumbent is not stored: every caller measures
   proximity with the table's own pure metric (the simulator's
   topology distance, fixed at registration), so the stored value
   would always equal [t.proximity addr] recomputed on demand. The
   exception is {!consider_no_proximity}, which historically installed
   entries with proximity [0.0] (unbeatable, so first-seen wins); the
   flag bit reproduces exactly that. *)

type t = {
  config : Config.t;
  own : Id.t;
  proximity : int -> float; (* pure: same address, same answer, forever *)
  dir : Directory.t;
  mutable cells : int array; (* rows_alloc × cols, packed; -1 = empty *)
  mutable rows_alloc : int;
  mutable count : int;
}

let no_prox_bit = 0x40000000
let addr_mask = no_prox_bit - 1

let create ?dir ~config ~own ~proximity () =
  Config.validate config;
  let dir = match dir with Some d -> d | None -> Directory.create () in
  { config; own; proximity; dir; cells = [||]; rows_alloc = 0; count = 0 }

let cell_prox t packed = if packed land no_prox_bit <> 0 then 0.0 else t.proximity (packed land addr_mask)

let ensure_row t row =
  if row >= t.rows_alloc then begin
    let cols = Config.cols t.config in
    let fresh = Array.make ((row + 1) * cols) (-1) in
    Array.blit t.cells 0 fresh 0 (t.rows_alloc * cols);
    t.cells <- fresh;
    t.rows_alloc <- row + 1
  end

let position t id =
  let b = t.config.Config.b in
  let row = Id.shared_prefix_digits ~b t.own id in
  if row >= Config.rows t.config then None (* id = own *)
  else Some (row, Id.digit ~b id row)

let lookup t ~row ~col =
  if row < 0 || row >= Config.rows t.config || col < 0 || col >= Config.cols t.config then
    invalid_arg
      (Printf.sprintf "Routing_table.lookup: row %d, column %d out of range (%d rows, %d columns)"
         row col (Config.rows t.config) (Config.cols t.config));
  if row >= t.rows_alloc then None
  else
    let packed = t.cells.((row * Config.cols t.config) + col) in
    if packed < 0 then None else Some (Directory.get t.dir (packed land addr_mask))

let install t row col packed =
  ensure_row t row;
  let idx = (row * Config.cols t.config) + col in
  if t.cells.(idx) < 0 then t.count <- t.count + 1;
  t.cells.(idx) <- packed

(* The learn path's offer, on the bare binding: the proximity is
   already known (and equals what [t.proximity] would return), and the
   row/col are computed without the Option/tuple that [position]
   allocates — this runs twice per routed hop, almost always hitting
   the same-incumbent case. *)
let offer t ~prox ~id addr =
  let b = t.config.Config.b in
  let row = Id.shared_prefix_digits ~b t.own id in
  if row >= Config.rows t.config then false (* id = own *)
  else begin
    let col = Id.digit ~b id row in
    let packed = if row >= t.rows_alloc then -1 else t.cells.((row * Config.cols t.config) + col) in
    if packed < 0 then begin
      install t row col addr;
      true
    end
    else if packed land addr_mask = addr then false
    else if prox < cell_prox t packed then begin
      install t row col addr;
      true
    end
    else false
  end

let consider_prox t ~prox (peer : Peer.t) =
  let changed = offer t ~prox ~id:peer.Peer.id peer.Peer.addr in
  if changed then Directory.note t.dir peer;
  changed

let consider t (peer : Peer.t) = consider_prox t ~prox:(t.proximity peer.Peer.addr) peer

let consider_no_proximity t (peer : Peer.t) =
  match position t peer.Peer.id with
  | None -> false
  | Some (row, col) ->
    let packed = if row >= t.rows_alloc then -1 else t.cells.((row * Config.cols t.config) + col) in
    if packed < 0 then begin
      install t row col (peer.Peer.addr lor no_prox_bit);
      Directory.note t.dir peer;
      true
    end
    else false

let remove_addr t addr =
  let changed = ref false in
  for idx = 0 to (t.rows_alloc * Config.cols t.config) - 1 do
    let packed = t.cells.(idx) in
    if packed >= 0 && packed land addr_mask = addr then begin
      t.cells.(idx) <- -1;
      t.count <- t.count - 1;
      changed := true
    end
  done;
  !changed

let row_fold t i f acc =
  let cols = Config.cols t.config in
  let acc = ref acc in
  for col = 0 to cols - 1 do
    let packed = t.cells.((i * cols) + col) in
    if packed >= 0 then acc := f !acc (Directory.get t.dir (packed land addr_mask))
  done;
  !acc

let row_peers t i =
  if i < 0 || i >= Config.rows t.config then
    invalid_arg
      (Printf.sprintf "Routing_table.row_peers: row %d out of range (%d rows)" i
         (Config.rows t.config));
  if i >= t.rows_alloc then [] else List.rev (row_fold t i (fun acc p -> p :: acc) [])

let peers t =
  let acc = ref [] in
  for idx = (t.rows_alloc * Config.cols t.config) - 1 downto 0 do
    let packed = t.cells.(idx) in
    if packed >= 0 then acc := Directory.get t.dir (packed land addr_mask) :: !acc
  done;
  !acc

let entry_count t = t.count

let next_hop t ~key =
  let b = t.config.Config.b in
  let row = Id.shared_prefix_digits ~b t.own key in
  if row >= Config.rows t.config || row >= t.rows_alloc then None
  else
    let packed = t.cells.((row * Config.cols t.config) + Id.digit ~b key row) in
    if packed < 0 then None else Some (Directory.get t.dir (packed land addr_mask))
