(** Mixed-operation workload schedules.

    Generates a reproducible stream of client operations — inserts of
    heavy-tailed files, Zipf-popular lookups, occasional reclaims —
    with exponential (Poisson-process) inter-arrival times. This is the
    glue between the distribution models and the experiments that drive
    a PAST deployment over simulated hours; node churn comes from
    [Past_simnet.Churn]. *)

type op =
  | Insert of { name : string; size : int }
  | Lookup of { catalog_index : int }  (** index into previously inserted files *)
  | Reclaim of { catalog_index : int }

type event = { at : float; op : op }

type profile = {
  insert_weight : float;
  lookup_weight : float;
  reclaim_weight : float;
  sizes : Sizes.t;
  ops_per_time_unit : float;  (** Poisson arrival rate *)
}

val default_profile : profile
(** 20% inserts, 75% lookups, 5% reclaims; web-proxy sizes; one
    operation per simulated time unit. *)

val schedule :
  profile -> rng:Past_stdext.Rng.t -> horizon:float -> event list
(** Events in increasing [at] order over \[0, horizon). Lookup/reclaim
    targets are drawn by an approximately Zipf(1) rank over the catalog
    of inserts issued so far ([n^u] for uniform [u], oldest insert most
    popular; the caller maps ranks to fileIds as its catalog grows);
    while the catalog is empty only inserts are emitted. *)
