module Id = Past_id.Id

type t = { id : Id.t; addr : Past_simnet.Net.addr }

let make ~id ~addr = { id; addr }
let equal a b = a.addr = b.addr && Id.equal a.id b.id
