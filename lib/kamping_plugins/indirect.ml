module V = Ds.Vec
module P = Mpisim.P2p
module D = Mpisim.Datatype

let default_fill ~who dt =
  match D.default_elt dt with
  | Some d -> d
  | None -> Mpisim.Errors.usage "%s: datatype %s needs ~default" who (D.name dt)

(* Counts first (one small message per partner), then the payloads of the
   partners that actually have data. *)
let phase_exchange comm dt ~fill ~send_to ~recv_from ~outgoing ~count_tag ~data_tag =
  let raw = Kamping.Comm.raw comm in
  let count_reqs =
    Array.to_list recv_from
    |> List.map (fun src ->
           let buf = [| 0 |] in
           (src, buf, P.irecv raw D.int buf ~src ~tag:count_tag))
  in
  Array.iter
    (fun dst ->
      let n = match outgoing dst with Some v -> V.length v | None -> 0 in
      P.send raw D.int [| n |] ~dst ~tag:count_tag)
    send_to;
  let incoming =
    List.map
      (fun (src, buf, req) ->
        ignore (Mpisim.Request.wait req);
        (src, buf.(0)))
      count_reqs
  in
  let data_reqs =
    incoming
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (src, n) ->
           let buf = Array.make n fill in
           (src, buf, P.irecv raw dt buf ~src ~tag:data_tag))
  in
  Array.iter
    (fun dst ->
      match outgoing dst with
      | Some v when V.length v > 0 ->
          P.send raw dt (V.unsafe_data v) ~count:(V.length v) ~dst ~tag:data_tag
      | Some _ | None -> ())
    send_to;
  List.map
    (fun (src, buf, req) ->
      ignore (Mpisim.Request.wait req);
      (src, buf))
    data_reqs

let group_by_source comm ~fill ~source ~value items =
  let p = Kamping.Comm.size comm in
  let per_src = Array.make p 0 in
  V.iter (fun x -> per_src.(source x) <- per_src.(source x) + 1) items;
  let cursor = Array.make p 0 in
  for i = 1 to p - 1 do
    cursor.(i) <- cursor.(i - 1) + per_src.(i - 1)
  done;
  let out = V.make (V.length items) fill in
  V.iter
    (fun x ->
      let s = source x in
      V.set out cursor.(s) (value x);
      cursor.(s) <- cursor.(s) + 1)
    items;
  Kamping.Comm.compute comm (Kamping.Costs.linear (2 * V.length items));
  (out, per_src)
