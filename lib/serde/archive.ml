exception Corrupt of string

type writer = Buffer.t

let writer () = Buffer.create 64
let contents w = Buffer.to_bytes w
let size w = Buffer.length w

(* Archives are built in one shared scratch writer and copied out once at
   their exact size, so a build allocates the archive and not the doubling
   steps of a fresh writer.  A build that starts while the scratch is in
   use (a nested one) takes a fresh writer.  A scratch that grew past
   [scratch_keep] bytes releases its storage after use. *)
let scratch = writer ()
let scratch_busy = ref false
let scratch_keep = 1 lsl 20

let release_scratch () =
  if Buffer.length scratch > scratch_keep then Buffer.reset scratch else Buffer.clear scratch;
  scratch_busy := false

let build f =
  if !scratch_busy then begin
    let w = writer () in
    f w;
    contents w
  end
  else begin
    scratch_busy := true;
    match f scratch with
    | () ->
        let b = contents scratch in
        release_scratch ();
        b
    | exception e ->
        release_scratch ();
        raise e
  end

(* Zig-zag maps small negative ints to small unsigned codes. *)
let zigzag i = (i lsl 1) lxor (i asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor (-(u land 1))

let write_varint w i =
  let u = ref (zigzag i) in
  let continue = ref true in
  while !continue do
    let b = !u land 0x7F in
    u := !u lsr 7;
    if !u = 0 then begin
      Buffer.add_char w (Char.chr b);
      continue := false
    end
    else Buffer.add_char w (Char.chr (b lor 0x80))
  done

let write_int64 w i = Buffer.add_int64_le w i
let write_float w f = Buffer.add_int64_le w (Int64.bits_of_float f)
let write_byte w c = Buffer.add_char w c
let write_bool w b = Buffer.add_char w (if b then '\001' else '\000')

let write_string w s =
  write_varint w (String.length s);
  Buffer.add_string w s

let write_bytes w b =
  write_varint w (Bytes.length b);
  Buffer.add_bytes w b

(* The cursor reads [data] up to [limit], so a part of a larger buffer
   decodes in place.  [reset] points an existing cursor at a new window,
   so a caller can keep one instead of allocating one per decode. *)
type reader = { mutable data : Bytes.t; mutable pos : int; mutable limit : int }

let check_window ~pos ~len data =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg
      (Printf.sprintf "Archive.reader: window [%d, %d) exceeds %d bytes" pos (pos + len)
         (Bytes.length data))

let reader ~pos ~len data =
  check_window ~pos ~len data;
  { data; pos; limit = pos + len }

let reset r ~pos ~len data =
  check_window ~pos ~len data;
  r.data <- data;
  r.pos <- pos;
  r.limit <- pos + len

let remaining r = r.limit - r.pos
let at_end r = remaining r = 0

let need r n = if remaining r < n then raise (Corrupt (Printf.sprintf "need %d bytes, have %d" n (remaining r)))

let read_byte r =
  need r 1;
  let c = Bytes.get r.data r.pos in
  r.pos <- r.pos + 1;
  c

(* Top level, so the loop takes the reader as an argument instead of
   capturing it: a varint read allocates no closure. *)
let rec read_varint_bits r shift acc =
  if shift > Sys.int_size then raise (Corrupt "varint too long");
  let b = Char.code (read_byte r) in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 <> 0 then read_varint_bits r (shift + 7) acc else acc

let read_varint r = unzigzag (read_varint_bits r 0 0)

let read_int64 r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let read_float r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits v
let read_bool r = read_byte r <> '\000'

let read_bytes r =
  let n = read_varint r in
  if n < 0 then raise (Corrupt "negative string length");
  need r n;
  let b = Bytes.sub r.data r.pos n in
  r.pos <- r.pos + n;
  b

(* The copy [read_bytes] returns is fresh and unshared. *)
let read_string r = Bytes.unsafe_to_string (read_bytes r)
