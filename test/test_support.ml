open Wb_support

let qtest = QCheck_alcotest.to_alcotest

let check = Alcotest.(check bool)

let prng_tests =
  [ Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Prng.create 123 and b = Prng.create 123 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "bits" (Prng.bits64 a) (Prng.bits64 b)
        done);
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let a = Prng.create 1 and b = Prng.create 2 in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Prng.bits64 a = Prng.bits64 b then incr same
        done;
        check "mostly different" true (!same < 4));
    Alcotest.test_case "copy replays" `Quick (fun () ->
        let a = Prng.create 5 in
        ignore (Prng.bits64 a);
        let b = Prng.copy a in
        Alcotest.(check int64) "bits" (Prng.bits64 a) (Prng.bits64 b));
    Alcotest.test_case "split is independent of parent draw count" `Quick (fun () ->
        let a = Prng.create 9 in
        let c = Prng.split a in
        check "child differs from fresh parent stream" true (Prng.bits64 c <> Prng.bits64 a));
    qtest
      (QCheck.Test.make ~name:"int respects bound" ~count:500
         QCheck.(pair small_int (int_range 1 1000))
         (fun (seed, bound) ->
           let g = Prng.create seed in
           let v = Prng.int g bound in
           v >= 0 && v < bound));
    qtest
      (QCheck.Test.make ~name:"in_range inclusive" ~count:500
         QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
         (fun (seed, lo, span) ->
           let g = Prng.create seed in
           let v = Prng.in_range g lo (lo + span) in
           v >= lo && v <= lo + span));
    qtest
      (QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
         QCheck.(pair small_int (int_range 0 40))
         (fun (seed, n) ->
           let g = Prng.create seed in
           let a = Array.init n (fun i -> i) in
           Prng.shuffle g a;
           Perm.is_permutation a));
    qtest
      (QCheck.Test.make ~name:"sample_without_replacement: sorted distinct in range" ~count:300
         QCheck.(triple small_int (int_range 0 30) (int_range 0 30))
         (fun (seed, a, b) ->
           let k = min a b and n = max a b in
           let g = Prng.create seed in
           let s = Prng.sample_without_replacement g k n in
           Array.length s = k
           && Array.for_all (fun v -> v >= 0 && v < n) s
           && Array.to_list s = List.sort_uniq compare (Array.to_list s)));
    Alcotest.test_case "float in [0,1)" `Quick (fun () ->
        let g = Prng.create 17 in
        for _ = 1 to 1000 do
          let f = Prng.float g in
          check "range" true (f >= 0.0 && f < 1.0)
        done) ]

let bitset_tests =
  let reference_ops seed n ops =
    (* Mirror operations on a Bitset and a module Set, compare. *)
    let module IS = Set.Make (Int) in
    let g = Prng.create seed in
    let s = Bitset.create n in
    let r = ref IS.empty in
    for _ = 1 to ops do
      let i = Prng.int g n in
      match Prng.int g 3 with
      | 0 ->
        Bitset.add s i;
        r := IS.add i !r
      | 1 ->
        Bitset.remove s i;
        r := IS.remove i !r
      | _ -> if Bitset.mem s i <> IS.mem i !r then failwith "mem mismatch"
    done;
    Bitset.to_list s = IS.elements !r && Bitset.cardinal s = IS.cardinal !r
  in
  [ qtest
      (QCheck.Test.make ~name:"bitset mirrors Set" ~count:100
         QCheck.(pair small_int (int_range 1 200))
         (fun (seed, n) -> reference_ops seed n 300));
    Alcotest.test_case "set-algebra on word boundaries" `Quick (fun () ->
        let n = 130 in
        let a = Bitset.of_list n [ 0; 62; 63; 64; 126; 129 ] in
        let b = Bitset.of_list n [ 62; 64; 100; 129 ] in
        let u = Bitset.copy a in
        Bitset.union_into u b;
        Alcotest.(check (list int)) "union" [ 0; 62; 63; 64; 100; 126; 129 ] (Bitset.to_list u);
        let i = Bitset.copy a in
        Bitset.inter_into i b;
        Alcotest.(check (list int)) "inter" [ 62; 64; 129 ] (Bitset.to_list i);
        let d = Bitset.copy a in
        Bitset.diff_into d b;
        Alcotest.(check (list int)) "diff" [ 0; 63; 126 ] (Bitset.to_list d);
        check "subset" true (Bitset.subset i a);
        check "not subset" false (Bitset.subset b a));
    Alcotest.test_case "iter is increasing" `Quick (fun () ->
        let s = Bitset.of_list 300 [ 299; 0; 150; 63; 64 ] in
        let prev = ref (-1) in
        Bitset.iter
          (fun v ->
            check "increasing" true (v > !prev);
            prev := v)
          s);
    Alcotest.test_case "bounds are checked" `Quick (fun () ->
        let s = Bitset.create 10 in
        Alcotest.check_raises "add" (Invalid_argument "Bitset.add: out of range") (fun () ->
            Bitset.add s 10)) ]

let rankset_tests =
  (* Replay random add/remove/copy operations on a Rankset and on a
     sorted-list model, comparing every observation after each step. *)
  let agrees n s model =
    let v = Rankset.view s in
    Rankset.count v = List.length model
    && Rankset.to_list v = model
    && List.rev (Rankset.fold List.cons v []) = model
    && List.for_all (fun i -> Rankset.mem v i = List.mem i model) (List.init (n + 2) (fun i -> i - 1))
    && List.for_all2 (fun k x -> Rankset.nth v k = x) (List.init (List.length model) Fun.id) model
    && Rankset.find_opt (fun x -> x mod 3 = 2) v = List.find_opt (fun x -> x mod 3 = 2) model
    && (let seen = ref [] in
        Rankset.iter (fun x -> seen := x :: !seen) v;
        List.rev !seen = model)
  in
  let replay (n, ops) =
    let s = ref (Rankset.create n) and model = ref [] in
    let saved = ref (Rankset.copy !s, []) in
    List.for_all
      (fun (op, i) ->
        let i = i mod n in
        (match op mod 5 with
        | 0 | 1 ->
          Rankset.add !s i;
          model := List.sort_uniq compare (i :: !model)
        | 2 ->
          Rankset.remove !s i;
          model := List.filter (fun x -> x <> i) !model
        | 3 -> saved := (Rankset.copy !s, !model)
        | _ ->
          (* The saved copy must not have followed later mutations. *)
          let copy, m = !saved in
          s := Rankset.copy copy;
          model := m);
        agrees n !s !model && agrees n (fst !saved) (snd !saved))
      ops
  in
  [ qtest
      (QCheck.Test.make ~name:"rankset mirrors a sorted list" ~count:300
         QCheck.(pair (int_range 1 200) (list_of_size Gen.(int_range 0 120) (pair small_nat small_nat)))
         replay);
    Alcotest.test_case "rank and select across word boundaries" `Quick (fun () ->
        let s = Rankset.of_list 200 [ 199; 0; 62; 63; 64; 125; 126 ] in
        let v = Rankset.view s in
        Alcotest.(check (list int)) "members" [ 0; 62; 63; 64; 125; 126; 199 ] (Rankset.to_list v);
        Alcotest.(check (list int)) "nth" [ 0; 62; 63; 64; 125; 126; 199 ]
          (List.init (Rankset.count v) (Rankset.nth v));
        Rankset.remove s 63;
        (* The view observes the set it was taken from. *)
        Alcotest.(check int) "view follows" 64 (Rankset.nth v 2);
        check "mem outside the universe" false (Rankset.mem v 200 || Rankset.mem v (-1));
        Alcotest.check_raises "nth past count" (Invalid_argument "Rankset.nth: rank out of range")
          (fun () -> ignore (Rankset.nth v 6));
        match Rankset.add s 200 with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "add out of range must raise");
    Alcotest.test_case "empty universe" `Quick (fun () ->
        let v = Rankset.view (Rankset.create 0) in
        Alcotest.(check int) "count" 0 (Rankset.count v);
        Alcotest.(check (list int)) "members" [] (Rankset.to_list v)) ]

let bitbuf_tests =
  [ qtest
      (QCheck.Test.make ~name:"nat roundtrip (list)" ~count:300
         QCheck.(small_list (int_range 0 1_000_000))
         (fun vals ->
           let w = Bitbuf.Writer.create () in
           List.iter (Bitbuf.Writer.nat w) vals;
           (* read back unpacked, and packed behind three bytes of junk *)
           let bits = Bitbuf.Writer.length_bits w in
           let packed = Bytes.make (3 + ((bits + 7) / 8)) '\255' in
           Bitbuf.Writer.blit w packed 3;
           List.for_all
             (fun r ->
               List.for_all (fun v -> Bitbuf.Reader.nat r = v) vals && Bitbuf.Reader.remaining r = 0)
             [ Bitbuf.Reader.of_bits (Bitbuf.Writer.contents w);
               Bitbuf.Reader.of_packed (Bytes.to_string packed) ~off:3 ~bits ]));
    qtest
      (QCheck.Test.make ~name:"fixed roundtrip" ~count:300
         QCheck.(pair (int_range 0 62) (int_range 0 max_int))
         (fun (width, v) ->
           let v = if width = 0 then 0 else v land ((1 lsl min width 61) - 1) in
           let width = if width > 61 then 61 else width in
           let w = Bitbuf.Writer.create () in
           Bitbuf.Writer.fixed w ~width v;
           let r = Bitbuf.Reader.of_bits (Bitbuf.Writer.contents w) in
           Bitbuf.Reader.fixed r ~width = v));
    qtest
      (QCheck.Test.make ~name:"gamma/delta roundtrip, delta no longer for big values" ~count:300
         QCheck.(int_range 1 10_000_000)
         (fun v ->
           let w1 = Bitbuf.Writer.create () in
           Bitbuf.Writer.gamma w1 v;
           let w2 = Bitbuf.Writer.create () in
           Bitbuf.Writer.delta w2 v;
           let r1 = Bitbuf.Reader.of_bits (Bitbuf.Writer.contents w1) in
           let r2 = Bitbuf.Reader.of_bits (Bitbuf.Writer.contents w2) in
           Bitbuf.Reader.gamma r1 = v && Bitbuf.Reader.delta r2 = v
           && (v < 32 || Bitbuf.Writer.length_bits w2 <= Bitbuf.Writer.length_bits w1)));
    Alcotest.test_case "width_of" `Quick (fun () ->
        List.iter
          (fun (v, w) -> Alcotest.(check int) (string_of_int v) w (Bitbuf.width_of v))
          [ (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (255, 8); (256, 9) ]);
    Alcotest.test_case "underflow raises" `Quick (fun () ->
        let r = Bitbuf.Reader.of_bits [| true |] in
        ignore (Bitbuf.Reader.bit r);
        Alcotest.check_raises "bit" Bitbuf.Reader.Underflow (fun () -> ignore (Bitbuf.Reader.bit r)));
    Alcotest.test_case "mixed stream" `Quick (fun () ->
        let w = Bitbuf.Writer.create () in
        Bitbuf.Writer.bit w true;
        Bitbuf.Writer.fixed w ~width:7 99;
        Bitbuf.Writer.nat w 0;
        Bitbuf.Writer.gamma w 1;
        Bitbuf.Writer.delta w 1000;
        let r = Bitbuf.Reader.of_bits (Bitbuf.Writer.contents w) in
        check "bit" true (Bitbuf.Reader.bit r);
        Alcotest.(check int) "fixed" 99 (Bitbuf.Reader.fixed r ~width:7);
        Alcotest.(check int) "nat" 0 (Bitbuf.Reader.nat r);
        Alcotest.(check int) "gamma" 1 (Bitbuf.Reader.gamma r);
        Alcotest.(check int) "delta" 1000 (Bitbuf.Reader.delta r)) ]

let dynarray_tests =
  [ Alcotest.test_case "push/pop/last/truncate" `Quick (fun () ->
        let d = Dynarray.create () in
        for i = 0 to 99 do
          Dynarray.push d i
        done;
        Alcotest.(check int) "len" 100 (Dynarray.length d);
        Alcotest.(check int) "last" 99 (Dynarray.last d);
        Alcotest.(check int) "pop" 99 (Dynarray.pop d);
        Dynarray.truncate d 10;
        Alcotest.(check (list int)) "list" (List.init 10 Fun.id) (Dynarray.to_list d));
    qtest
      (QCheck.Test.make ~name:"to_array/of_array roundtrip" ~count:200
         QCheck.(small_list int)
         (fun l ->
           let d = Dynarray.of_array (Array.of_list l) in
           Dynarray.to_list d = l)) ]

let heap_tests =
  [ qtest
      (QCheck.Test.make ~name:"drain sorts" ~count:200
         QCheck.(small_list int)
         (fun l ->
           let h = Heap.of_array ~cmp:compare (Array.of_list l) in
           Heap.drain h = List.sort compare l));
    Alcotest.test_case "peek/pop interplay" `Quick (fun () ->
        let h = Heap.create ~cmp:compare in
        Alcotest.(check (option int)) "empty" None (Heap.pop h);
        Heap.push h 5;
        Heap.push h 2;
        Heap.push h 9;
        Alcotest.(check (option int)) "peek" (Some 2) (Heap.peek h);
        Alcotest.(check (option int)) "pop" (Some 2) (Heap.pop h);
        Alcotest.(check int) "len" 2 (Heap.length h)) ]

let perm_tests =
  [ Alcotest.test_case "iter_all visits n! distinct" `Quick (fun () ->
        for n = 0 to 6 do
          let seen = Hashtbl.create 720 in
          Perm.iter_all n (fun p ->
              check "is perm" true (Perm.is_permutation p);
              Hashtbl.replace seen (Array.to_list p) ());
          Alcotest.(check int)
            (Printf.sprintf "n=%d" n)
            (if n = 0 then 1 else Perm.factorial n)
            (Hashtbl.length seen)
        done);
    qtest
      (QCheck.Test.make ~name:"inverse . apply = id" ~count:200
         QCheck.(pair small_int (int_range 1 30))
         (fun (seed, n) ->
           let p = Perm.random (Prng.create seed) n in
           let inv = Perm.inverse p in
           Array.for_all (fun i -> inv.(p.(i)) = i) (Array.init n Fun.id))) ]

let mix_tests =
  [ Alcotest.test_case "deterministic and nonzero" `Quick (fun () ->
        Alcotest.(check int) "stable" (Mix.mix 42) (Mix.mix 42);
        check "mix 0 <> 0" true (Mix.mix 0 <> 0);
        check "nonnegative" true (Mix.mix min_int >= 0 && Mix.mix max_int >= 0));
    qtest
      (QCheck.Test.make ~name:"no trivial collisions on small ints" ~count:1
         QCheck.unit
         (fun () ->
           let seen = Hashtbl.create 4096 in
           for i = 0 to 4095 do
             Hashtbl.replace seen (Mix.mix i) ()
           done;
           Hashtbl.length seen = 4096));
    qtest
      (QCheck.Test.make ~name:"combine is order-dependent" ~count:200
         QCheck.(pair small_nat small_nat)
         (fun (a, b) ->
           QCheck.assume (a <> b);
           Mix.combine (Mix.combine 0 a) b <> Mix.combine (Mix.combine 0 b) a));
    qtest
      (QCheck.Test.make ~name:"bools: injective-ish and length-sensitive" ~count:200
         QCheck.(pair (array_of_size Gen.(0 -- 70) bool) small_nat)
         (fun (bits, seed) ->
           let h = Mix.bools ~seed bits in
           (* Stable, and appending a zero bit changes the hash (length is
              folded in, so trailing-zero padding is not a collision). *)
           h = Mix.bools ~seed bits
           && h <> Mix.bools ~seed (Array.append bits [| false |]))) ]

let deque_tests =
  [ Alcotest.test_case "owner LIFO, thief FIFO" `Quick (fun () ->
        let d = Deque.create () in
        for i = 1 to 5 do
          Deque.push d i
        done;
        Alcotest.(check (option int)) "pop newest" (Some 5) (Deque.pop d);
        Alcotest.(check (option int)) "steal oldest" (Some 1) (Deque.steal d);
        Alcotest.(check (option int)) "steal next" (Some 2) (Deque.steal d);
        Alcotest.(check (option int)) "pop" (Some 4) (Deque.pop d);
        Alcotest.(check (option int)) "pop last" (Some 3) (Deque.pop d);
        Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
        Alcotest.(check (option int)) "empty steal" None (Deque.steal d));
    Alcotest.test_case "grows past initial capacity" `Quick (fun () ->
        let d = Deque.create () in
        for i = 0 to 999 do
          Deque.push d i
        done;
        Alcotest.(check int) "size" 1000 (Deque.size d);
        for i = 999 downto 0 do
          Alcotest.(check (option int)) "pop order" (Some i) (Deque.pop d)
        done);
    Alcotest.test_case "two-domain steal stress: every element exactly once" `Quick (fun () ->
        (* The owner interleaves pushes and pops while a thief drains from
           the top; between them every pushed element must surface exactly
           once.  Exercises the pop/steal race on the last element. *)
        let d = Deque.create () in
        let n = 20_000 in
        let stolen = ref [] in
        let thief =
          Domain.spawn (fun () ->
              let taken = ref 0 in
              while !taken < n / 4 do
                match Deque.steal d with
                | Some v ->
                  stolen := v :: !stolen;
                  incr taken
                | None -> Domain.cpu_relax ()
              done)
        in
        let popped = ref [] in
        let next = ref 0 in
        while !next < n do
          Deque.push d !next;
          incr next;
          if !next mod 3 = 0 then
            match Deque.pop d with
            | Some v -> popped := v :: !popped
            | None -> ()
        done;
        Domain.join thief;
        let rec drain () =
          match Deque.pop d with
          | Some v ->
            popped := v :: !popped;
            drain ()
          | None -> ()
        in
        drain ();
        let all = List.rev_append !stolen !popped in
        Alcotest.(check int) "total count" n (List.length all);
        let sorted = List.sort Int.compare all in
        check "each element exactly once" true
          (List.for_all2 Int.equal sorted (List.init n Fun.id)));
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 2005 |])
      (QCheck.Test.make ~name:"push/pop/steal agree with a reference list" ~count:300
         (QCheck.make ~shrink:QCheck.Shrink.list
            ~print:
              (QCheck.Print.list (function
                | `Push x -> Printf.sprintf "push %d" x
                | `Pop -> "pop"
                | `Steal -> "steal"))
            QCheck.Gen.(
              list_size (0 -- 200)
                (frequency
                   [ (3, map (fun x -> `Push x) small_nat);
                     (2, return `Pop);
                     (2, return `Steal) ])))
         (fun ops ->
           (* The model lists the elements oldest first: pop takes its last
              element, steal its first. *)
           let d = Deque.create () in
           let model = ref [] in
           List.for_all
             (fun op ->
               let agrees =
                 match op with
                 | `Push x ->
                   Deque.push d x;
                   model := !model @ [ x ];
                   true
                 | `Pop -> (
                   match List.rev !model with
                   | [] -> Option.is_none (Deque.pop d)
                   | newest :: rest ->
                     model := List.rev rest;
                     Option.equal Int.equal (Deque.pop d) (Some newest))
                 | `Steal -> (
                   match !model with
                   | [] -> Option.is_none (Deque.steal d)
                   | oldest :: rest ->
                     model := rest;
                     Option.equal Int.equal (Deque.steal d) (Some oldest))
               in
               agrees && Deque.size d = List.length !model)
             ops)) ]

let cset_tests =
  [ Alcotest.test_case "add/mem/cardinal, zero is an ordinary key" `Quick (fun () ->
        let t = Cset.create ~limit:100 () in
        check "added" true (Cset.add t 7 = `Added);
        check "present" true (Cset.add t 7 = `Present);
        check "mem" true (Cset.mem t 7);
        check "not mem" false (Cset.mem t 8);
        check "zero digest works" true (Cset.add t 0 = `Added);
        check "zero present" true (Cset.add t 0 = `Present);
        Alcotest.(check int) "cardinal" 2 (Cset.cardinal t));
    Alcotest.test_case "fills up to limit then reports Full" `Quick (fun () ->
        let t = Cset.create ~limit:16 () in
        Alcotest.(check int) "limit clamp" 16 (Cset.limit t);
        for i = 1 to 16 do
          check "added" true (Cset.add t (Mix.mix i) = `Added)
        done;
        check "full" true (Cset.add t (Mix.mix 99) = `Full);
        check "existing still present" true (Cset.add t (Mix.mix 3) = `Present));
    Alcotest.test_case "two-domain adds claim each digest exactly once" `Quick (fun () ->
        let t = Cset.create ~limit:20_000 () in
        let n = 10_000 in
        let adds k =
          (* Both domains race over the same digest set, offset so they
             collide constantly. *)
          let mine = ref 0 in
          for i = 0 to n - 1 do
            let i = if k = 0 then i else n - 1 - i in
            match Cset.add t (Mix.mix i) with
            | `Added -> incr mine
            | `Present -> ()
            | `Full -> Alcotest.fail "unexpected Full"
          done;
          !mine
        in
        let other = Domain.spawn (fun () -> adds 1) in
        let a = adds 0 in
        let b = Domain.join other in
        Alcotest.(check int) "claims partition the digests" n (a + b);
        Alcotest.(check int) "cardinal" n (Cset.cardinal t));
    Alcotest.test_case "create allocates nothing in proportion to the limit" `Quick (fun () ->
        (* Words allocated: minor + major - promoted.  [Gc.counters]'s minor
           count leaves out the current minor heap; [Gc.minor_words] does not. *)
        let words () =
          let _, promoted, major = Gc.counters () in
          Gc.minor_words () +. major -. promoted
        in
        let before = words () in
        let t = Cset.create ~limit:250_000 () in
        let allocated = words () -. before in
        ignore (Sys.opaque_identity t);
        check (Printf.sprintf "%.0f words < 4096" allocated) true (allocated < 4096.));
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 1109 |])
      (QCheck.Test.make ~name:"add answers agree with a reference set under a limit" ~count:300
         (QCheck.make ~print:QCheck.Print.(pair int (list int))
            QCheck.Gen.(pair (1 -- 30) (list_size (0 -- 120) (-10 -- 40))))
         (fun (limit, digests) ->
           let module IS = Set.Make (Int) in
           let t = Cset.create ~limit () in
           let model = ref IS.empty in
           List.for_all
             (fun d ->
               let expected =
                 if IS.mem d !model then `Present
                 else if IS.cardinal !model >= limit then `Full
                 else begin
                   model := IS.add d !model;
                   `Added
                 end
               in
               Cset.add t d = expected
               && Cset.mem t d = IS.mem d !model
               && Cset.cardinal t = IS.cardinal !model)
             digests)) ]

let suites =
  [ ("support.prng", prng_tests);
    ("support.bitset", bitset_tests);
    ("support.rankset", rankset_tests);
    ("support.bitbuf", bitbuf_tests);
    ("support.dynarray", dynarray_tests);
    ("support.heap", heap_tests);
    ("support.perm", perm_tests);
    ("support.mix", mix_tests);
    ("support.deque", deque_tests);
    ("support.cset", cset_tests) ]
