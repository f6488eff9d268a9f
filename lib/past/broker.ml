module Signer = Past_crypto.Signer
module Rng = Past_stdext.Rng

type t = {
  keypair : Signer.keypair;
  public : Signer.public;
  mode : [ `Rsa of int | `Insecure ];
  enforce_balance : bool;
  rng : Rng.t;
  mutable cards_issued : int;
  mutable total_quota : int;
  mutable total_contributed : int;
}

let create ?(mode = `Insecure) ?(enforce_balance = false) rng =
  let keypair = Signer.generate rng ~mode in
  {
    keypair;
    public = Signer.public keypair;
    mode;
    enforce_balance;
    rng;
    cards_issued = 0;
    total_quota = 0;
    total_contributed = 0;
  }

let public t = t.public

let issue_card t ~quota ~contributed =
  if contributed < 0 then invalid_arg "Broker.issue_card: negative contribution";
  if t.enforce_balance && t.total_quota + quota > t.total_contributed + contributed then
    Error `Supply_exhausted
  else begin
    let keypair = Signer.generate t.rng ~mode:t.mode in
    let card_public = Signer.public keypair in
    let endorsement = Signer.sign t.keypair (Smartcard.endorsement_material card_public) in
    t.cards_issued <- t.cards_issued + 1;
    t.total_quota <- t.total_quota + quota;
    t.total_contributed <- t.total_contributed + contributed;
    Ok
      (Smartcard.make ~keypair ~endorsement ~quota ~rng:(Rng.split t.rng))
  end

type report = { cards_issued : int; total_quota : int; total_contributed : int }

let report (t : t) =
  {
    cards_issued = t.cards_issued;
    total_quota = t.total_quota;
    total_contributed = t.total_contributed;
  }

let endorses t ~public ~endorsement = Smartcard.endorsed_by ~broker:t.public ~public ~endorsement
