(* Unit and property tests for the container substrate. *)

open Ds

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  Alcotest.(check int) "length" 3 (Vec.length v);
  Alcotest.(check int) "get" 2 (Vec.get v 1);
  Alcotest.(check int) "pop" 3 (Vec.pop v);
  Alcotest.(check int) "length after pop" 2 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 2));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds") (fun () ->
      Vec.set v (-1) 0);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty vector") (fun () ->
      ignore (Vec.pop (Vec.create ())))

let test_vec_resize () =
  let v = Vec.make 2 7 in
  Vec.resize v 5 9;
  Alcotest.(check (list int)) "grown" [ 7; 7; 9; 9; 9 ] (Vec.to_list v);
  Vec.resize v 1 0;
  Alcotest.(check (list int)) "shrunk" [ 7 ] (Vec.to_list v);
  Vec.ensure_length v 3 4;
  Alcotest.(check int) "ensured" 3 (Vec.length v);
  Vec.ensure_length v 2 4;
  Alcotest.(check int) "ensure never shrinks" 3 (Vec.length v)

(* A resize past the capacity takes its new slots from the store [grow]
   allocates; one within the capacity refills slots a shrink left stale.
   Capacity follows [grow] and a pending [reserve] either way. *)
let test_vec_resize_paths () =
  let v = Vec.create () in
  Vec.resize v 10 3;
  Alcotest.(check (list int)) "fresh store" (List.init 10 (fun _ -> 3)) (Vec.to_list v);
  Alcotest.(check int) "fresh capacity" 10 (Vec.capacity v);
  Vec.resize v 2 0;
  Vec.resize v 6 5;
  Alcotest.(check (list int)) "stale slots refilled" [ 3; 3; 5; 5; 5; 5 ] (Vec.to_list v);
  Alcotest.(check int) "capacity kept" 10 (Vec.capacity v);
  Vec.resize v 12 8;
  Alcotest.(check (list int)) "grown past capacity"
    ([ 3; 3; 5; 5; 5; 5 ] @ List.init 6 (fun _ -> 8))
    (Vec.to_list v);
  Alcotest.(check int) "doubled" 20 (Vec.capacity v);
  let w = Vec.create () in
  Vec.reserve w 64;
  Vec.resize w 5 1;
  Alcotest.(check int) "reserve honoured" 64 (Vec.capacity w);
  Alcotest.(check (list int)) "reserved store" [ 1; 1; 1; 1; 1 ] (Vec.to_list w)

let test_vec_reserve_empty () =
  (* reserve on an empty vector must apply once elements arrive *)
  let v = Vec.create () in
  Vec.reserve v 100;
  Vec.push v 1;
  Alcotest.(check bool) "capacity honored" true (Vec.capacity v >= 100)

let test_vec_blit_sub () =
  let a = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  let b = Vec.make 5 0 in
  Vec.blit a 1 b 2 3;
  Alcotest.(check (list int)) "blit" [ 0; 0; 2; 3; 4 ] (Vec.to_list b);
  Alcotest.(check (list int)) "sub" [ 2; 3 ] (Vec.to_list (Vec.sub a 1 2))

let test_vec_append_iterate () =
  let a = Vec.of_list [ 1; 2 ] in
  Vec.append a (Vec.of_list [ 3 ]);
  Vec.append_array a [| 4; 5 |];
  Alcotest.(check (list int)) "append" [ 1; 2; 3; 4; 5 ] (Vec.to_list a);
  Alcotest.(check int) "fold" 15 (Vec.fold_left ( + ) 0 a);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 4) a);
  Alcotest.(check bool) "for_all" true (Vec.for_all (fun x -> x > 0) a);
  Alcotest.(check (list int)) "map" [ 2; 4; 6; 8; 10 ] (Vec.to_list (Vec.map (fun x -> 2 * x) a))

let test_vec_sort_slack () =
  (* sort must ignore slack capacity beyond the length *)
  let v = Vec.create () in
  List.iter (Vec.push v) [ 5; 1; 9; 3 ];
  ignore (Vec.pop v);
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 5; 9 ] (Vec.to_list v)

let prop_vec_roundtrip =
  Tutil.qtest "vec of_list/to_list roundtrip" QCheck2.Gen.(list int) (fun l ->
      Ds.Vec.to_list (Ds.Vec.of_list l) = l)

let prop_vec_push_matches_list =
  Tutil.qtest "vec push sequence equals list" QCheck2.Gen.(list int) (fun l ->
      let v = Ds.Vec.create () in
      List.iter (Ds.Vec.push v) l;
      Ds.Vec.to_list v = l)

let prop_vec_sort =
  Tutil.qtest "vec sort equals list sort" QCheck2.Gen.(list int) (fun l ->
      let v = Ds.Vec.of_list l in
      Ds.Vec.sort compare v;
      Ds.Vec.to_list v = List.sort compare l)

let test_bitset_basic () =
  let b = Bitset.create 130 in
  Bitset.set b 0;
  Bitset.set b 64;
  Bitset.set b 129;
  Alcotest.(check int) "count" 3 (Bitset.count b);
  Alcotest.(check bool) "mem" true (Bitset.mem b 64);
  Bitset.clear b 64;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 64);
  let seen = ref [] in
  Bitset.iter_set (fun i -> seen := i :: !seen) b;
  Alcotest.(check (list int)) "iter_set" [ 0; 129 ] (List.rev !seen)

let test_bitset_fill () =
  let b = Bitset.create 70 in
  Bitset.fill b;
  Alcotest.(check int) "fill count" 70 (Bitset.count b);
  Bitset.reset b;
  Alcotest.(check int) "reset count" 0 (Bitset.count b)

let test_bitset_copy_equal () =
  let b = Bitset.create 10 in
  Bitset.set b 3;
  let c = Bitset.copy b in
  Alcotest.(check bool) "copies equal" true (Bitset.equal b c);
  Bitset.set c 4;
  Alcotest.(check bool) "diverged" false (Bitset.equal b c)

let prop_bitset_set_mem =
  Tutil.qtest "bitset set/mem" QCheck2.Gen.(list (int_bound 199)) (fun idxs ->
      let b = Ds.Bitset.create 200 in
      List.iter (Ds.Bitset.set b) idxs;
      List.for_all (Ds.Bitset.mem b) idxs
      && Ds.Bitset.count b = List.length (List.sort_uniq compare idxs))

let suite =
  [
    Alcotest.test_case "vec basic" `Quick test_vec_basic;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec resize" `Quick test_vec_resize;
    Alcotest.test_case "vec resize paths" `Quick test_vec_resize_paths;
    Alcotest.test_case "vec reserve on empty" `Quick test_vec_reserve_empty;
    Alcotest.test_case "vec blit/sub" `Quick test_vec_blit_sub;
    Alcotest.test_case "vec append/iterate" `Quick test_vec_append_iterate;
    Alcotest.test_case "vec sort with slack" `Quick test_vec_sort_slack;
    prop_vec_roundtrip;
    prop_vec_push_matches_list;
    prop_vec_sort;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset fill/reset" `Quick test_bitset_fill;
    Alcotest.test_case "bitset copy/equal" `Quick test_bitset_copy_equal;
    prop_bitset_set_mem;
  ]
