type 'a t = {
  req : Mpisim.Request.t;
  extract : Mpisim.Request.status -> 'a;
  mutable value : 'a option;  (* cache so extraction runs once *)
}

let make req extract = { req; extract; value = None }

let force r status =
  match r.value with
  | Some v -> v
  | None ->
      let v = r.extract status in
      r.value <- Some v;
      v

let wait r = force r (Mpisim.Request.wait r.req)
let test r = Option.map (force r) (Mpisim.Request.test r.req)
let request r = r.req
let map f r = { req = r.req; extract = (fun status -> f (force r status)); value = None }
