type level = Off | Light | Normal | Heavy | Communication

let rank_of = function Off -> 0 | Light -> 1 | Normal -> 2 | Heavy -> 3 | Communication -> 4
let current = ref Light

(* The simulator-side checker mirrors the KaMPIng level: [Normal] adds no
   simulator checks beyond [Light], and [Heavy]'s communicating assertions
   correspond to the checker's deadlock/leak analyses. *)
let checker_level_of = function
  | Off -> Mpisim.Checker.Off
  | Light | Normal -> Mpisim.Checker.Light
  | Heavy -> Mpisim.Checker.Heavy
  | Communication -> Mpisim.Checker.Communication

let set_level l =
  current := l;
  Mpisim.Checker.set_level (checker_level_of l)

let enabled l = rank_of l <= rank_of !current

let check l cond msg = if enabled l && not (cond ()) then raise (Mpisim.Errors.Usage_error msg)

let heavy_check_uniform comm value ~what =
  if enabled Heavy then begin
    let lo = Array.make 1 0 and hi = Array.make 1 0 in
    Mpisim.Collectives.allreduce comm Mpisim.Datatype.int Mpisim.Op.int_min ~sendbuf:[| value |]
      ~recvbuf:lo ~count:1;
    Mpisim.Collectives.allreduce comm Mpisim.Datatype.int Mpisim.Op.int_max ~sendbuf:[| value |]
      ~recvbuf:hi ~count:1;
    if lo.(0) <> hi.(0) then
      Mpisim.Errors.usage "heavy assertion failed: ranks disagree on %s (min %d, max %d)" what
        lo.(0) hi.(0)
  end

let with_level l f =
  let saved = !current and saved_check = Mpisim.Checker.level () in
  set_level l;
  Fun.protect
    ~finally:(fun () ->
      current := saved;
      Mpisim.Checker.set_level saved_check)
    f
