exception Recovery_exhausted of { attempts : int }

let is_revoked t = Mpisim.Ulfm.is_revoked (Kamping.Comm.raw t)
let revoke t = Mpisim.Ulfm.revoke (Kamping.Comm.raw t)
let shrink t = Kamping.Comm.wrap (Mpisim.Ulfm.shrink (Kamping.Comm.raw t))
let agree t v = Mpisim.Ulfm.agree (Kamping.Comm.raw t) v

let with_recovery ?(max_attempts = 9) t f =
  if max_attempts <= 0 then Mpisim.Errors.usage "Ulfm.with_recovery: max_attempts %d" max_attempts;
  let rec attempt comm tries =
    if tries >= max_attempts then raise (Recovery_exhausted { attempts = tries })
    else if Kamping.Comm.size comm = 0 then None
    else
      match f comm with
      | v -> Some (v, comm)
      | exception (Mpisim.Errors.Process_failed _ | Mpisim.Errors.Comm_revoked) ->
          if not (is_revoked comm) then revoke comm;
          let survivors = shrink comm in
          attempt survivors (tries + 1)
  in
  attempt t 0
