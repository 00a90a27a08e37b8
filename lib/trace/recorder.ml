type t = {
  act : bool;
  ranks : int;
  spans : Event.span Ds.Vec.t;
  messages : Event.message Ds.Vec.t;
  waits : Event.wait Ds.Vec.t;
  rank_end : float array;
  mutable next_msg_id : int;
}

let make act ranks =
  {
    act;
    ranks;
    spans = Ds.Vec.create ();
    messages = Ds.Vec.create ();
    waits = Ds.Vec.create ();
    rank_end = Array.make (max ranks 1) (-1.0);
    next_msg_id = 0;
  }

let inert = make false 0
let create ~ranks = make true ranks
let active t = t.act
let add_span t span = if t.act then Ds.Vec.push t.spans span

let add_message t ~src ~dst ~tag ~bytes ~user ~sent ~arrived =
  let id = t.next_msg_id in
  t.next_msg_id <- id + 1;
  let m =
    {
      Event.msg_id = id;
      msg_src = src;
      msg_dst = dst;
      msg_tag = tag;
      msg_bytes = bytes;
      msg_user = user;
      msg_sent = sent;
      msg_arrived = arrived;
      msg_posted = -1.0;
      msg_matched = -1.0;
    }
  in
  if t.act then Ds.Vec.push t.messages m;
  m

let add_wait t ~rank ~t0 ~t1 =
  if t.act && t1 > t0 && rank >= 0 && rank < t.ranks then
    Ds.Vec.push t.waits { Event.w_rank = rank; w_t0 = t0; w_t1 = t1 }

let rank_done t ~rank ~time =
  if t.act && rank >= 0 && rank < Array.length t.rank_end then
    t.rank_end.(rank) <- time

let finish t ~total =
  let rank_end =
    Array.map (fun e -> if e < 0.0 then total else e) t.rank_end
  in
  {
    Event.ranks = t.ranks;
    spans = Ds.Vec.to_list t.spans;
    messages = Ds.Vec.to_list t.messages;
    waits = Ds.Vec.to_list t.waits;
    rank_end;
    total;
  }

(* Process-wide default, mirroring Checker's MPISIM_CHECK gating. *)

let default_of_env = function
  | None -> false
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "1" | "true" | "on" | "yes" -> true
      | "" | "0" | "false" | "off" | "no" -> false
      | _ ->
          invalid_arg
            (Printf.sprintf
               "MPISIM_TRACE: unknown value %S (expected 1, true, on, yes, 0, false, off or no)" v))

let default = ref (default_of_env (Sys.getenv_opt "MPISIM_TRACE"))
let default_enabled () = !default

let with_default b f =
  let old = !default in
  default := b;
  Fun.protect ~finally:(fun () -> default := old) f
